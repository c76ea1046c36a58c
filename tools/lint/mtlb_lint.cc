/**
 * @file
 * mtlb-lint CLI: repo-specific semantic lint over the simulator
 * sources. See tools/lint/lint.hh for the rule catalogue and
 * docs/manual.md §11 for usage.
 *
 * Exit codes: 0 clean, 1 findings, 2 usage or IO error (an unknown
 * argument or an unknown --format among them).
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "lint.hh"

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: mtlb-lint [--root DIR] [--format text|github] "
          "[--quiet]\n"
          "  --root DIR     repo root to lint (default: current "
          "directory)\n"
          "  --format KIND  output format: text (default) or github\n"
          "                 (workflow error annotations)\n"
          "  --quiet        suppress the summary line on success\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string fmt = "text";
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "mtlb-lint: " << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--root") {
            root = value();
        } else if (arg == "--format") {
            fmt = value();
            if (fmt != "text" && fmt != "github") {
                std::cerr << "mtlb-lint: unknown format '" << fmt
                          << "'\n";
                return 2;
            }
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "mtlb-lint: unknown argument '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        }
    }

    try {
        const auto findings = mtlblint::runLint(root);
        for (const auto &f : findings) {
            std::cout << (fmt == "github" ? mtlblint::formatGithub(f)
                                          : mtlblint::format(f))
                      << "\n";
        }
        if (!findings.empty()) {
            std::cerr << "mtlb-lint: " << findings.size()
                      << " finding(s)\n";
            return 1;
        }
        if (!quiet)
            std::cerr << "mtlb-lint: clean\n";
        return 0;
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
