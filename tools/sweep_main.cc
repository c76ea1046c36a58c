/**
 * @file
 * The sweep CLI: run a job matrix in parallel, dump results as
 * JSON, and record or check golden-stats baselines.
 *
 * Examples:
 *
 *   # Figure 3's tables on stdout, its JSON in fig3.json; the JSON is
 *   # identical for any --jobs
 *   tools/sweep --matrix fig3 --scale 1.0 --jobs 4 --out fig3.json
 *
 *   # the paper's whole evaluation as one parallel sweep
 *   tools/sweep --matrix all --scale 1.0 --jobs 4
 *
 *   # re-record the committed baselines (commit the diff with the
 *   # change that legitimately moved the numbers)
 *   tools/sweep --matrix golden --config configs/paper.cfg \
 *       --scale 0.05 --record --golden-dir tests/golden
 *
 *   # regression-check a build against the baselines
 *   tools/sweep --matrix golden --config configs/paper.cfg \
 *       --scale 0.05 --check --golden-dir tests/golden
 *
 * Exit status: 0 on success, 1 when a job fails or --check finds
 * any stat that differs from its golden, 2 on a usage error or on
 * input it cannot read or parse (a config or golden file), printed
 * as "sweep: <message>".
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "sim/config_parser.hh"
#include "stats/golden.hh"
#include "sweep/matrix.hh"

using namespace mtlbsim;

namespace
{

void
usage()
{
    std::printf("usage: sweep [options] [key=value ...]\n"
                "  --matrix NAME      job matrix (default golden), one "
                "of:\n");
    // The names wrap in the description column.
    std::string line;
    for (const auto &name : sweep::matrixNames()) {
        if (!line.empty() && line.size() + name.size() > 50) {
            std::printf("                    %s\n", line.c_str());
            line.clear();
        }
        line += " " + name;
    }
    std::printf("                    %s\n", line.c_str());
    std::printf(
        "  --scale S          dataset scale in (0,1] (default 0.05)\n"
        "  --jobs N           worker threads (default 1; 0 = all "
        "cores)\n"
        "  --filter SUBSTR    keep only jobs whose id contains "
        "SUBSTR\n"
        "  --list             print the matrix's job ids and exit\n"
        "  --config FILE      machine config file (golden matrix; "
        "key=value args\n"
        "                     override it)\n"
        "  --record           write per-job golden files into "
        "--golden-dir\n"
        "  --check            compare against golden files exactly; "
        "exit 1 on drift\n"
        "  --golden-dir DIR   golden file directory (default "
        "tests/golden)\n"
        "  --out FILE         write the full sweep JSON to FILE\n"
        "  --quiet            suppress per-job progress on stderr\n"
        "A matrix with tables (all but golden) prints them on stdout "
        "unless --filter is\ngiven; otherwise the JSON goes to stdout "
        "unless --out, --record or --check is.\n");
}

/** Golden-file name for a job id: '/' becomes '-'. */
std::string
goldenFileName(const std::string &id)
{
    std::string stem = id;
    for (auto &c : stem) {
        if (c == '/')
            c = '-';
    }
    return stem + ".json";
}

/** The program proper; main() turns its errors into exit status 2. */
int
run(int argc, char **argv)
{
    std::string matrix_name = "golden";
    double scale = 0.05;
    unsigned jobs = 1;
    std::string filter;
    bool list = false;
    bool record = false;
    bool check = false;
    std::string golden_dir = "tests/golden";
    std::string out_file;
    bool quiet = false;

    ConfigParser parser;

    auto next_arg = [&](int &i) -> const char * {
        if (++i >= argc) {
            usage();
            std::exit(2);
        }
        return argv[i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        if (token == "--help" || token == "-h") {
            usage();
            return 0;
        } else if (token == "--matrix") {
            matrix_name = next_arg(i);
        } else if (token == "--scale") {
            scale = parseScale(token, next_arg(i));
        } else if (token == "--jobs") {
            jobs = static_cast<unsigned>(
                parseCount(token, next_arg(i),
                           std::numeric_limits<unsigned>::max()));
        } else if (token == "--filter") {
            filter = next_arg(i);
        } else if (token == "--list") {
            list = true;
        } else if (token == "--config") {
            parser.parseFile(next_arg(i));
        } else if (token == "--record") {
            record = true;
        } else if (token == "--check") {
            check = true;
        } else if (token == "--golden-dir") {
            golden_dir = next_arg(i);
        } else if (token == "--out") {
            out_file = next_arg(i);
        } else if (token == "--quiet") {
            quiet = true;
        } else if (token.find('=') != std::string::npos) {
            const auto eq = token.find('=');
            parser.set(token.substr(0, eq), token.substr(eq + 1));
        } else {
            std::fprintf(stderr, "unknown option: %s\n",
                         token.c_str());
            usage();
            return 2;
        }
    }
    if (record && check) {
        std::fprintf(stderr,
                     "--record and --check are mutually exclusive\n");
        return 2;
    }

    auto matrix =
        sweep::makeMatrix(matrix_name, scale, parser.config());
    if (!filter.empty()) {
        std::vector<sweep::SweepJob> kept;
        for (auto &job : matrix.jobs) {
            if (job.id.find(filter) != std::string::npos)
                kept.push_back(std::move(job));
        }
        matrix.jobs = std::move(kept);
    }
    if (list) {
        for (const auto &job : matrix.jobs)
            std::printf("%s\n", job.id.c_str());
        return 0;
    }
    if (matrix.jobs.empty()) {
        std::fprintf(stderr, "no jobs (filter too strict?)\n");
        return 2;
    }

    sweep::SweepOptions options;
    options.jobs = jobs;

    sweep::SweepRunner::Progress progress;
    if (!quiet) {
        progress = [](const sweep::SweepResult &r, std::size_t done,
                      std::size_t total) {
            std::fprintf(stderr, "  [%zu/%zu] %s%s%s\n", done, total,
                         r.id.c_str(), r.ok ? "" : " FAILED: ",
                         r.ok ? "" : r.error.c_str());
        };
    }

    const auto results =
        sweep::SweepRunner(options).run(matrix.jobs, progress);

    int status = 0;
    for (const auto &r : results) {
        if (!r.ok) {
            std::fprintf(stderr, "job %s failed: %s\n", r.id.c_str(),
                         r.error.c_str());
            status = 1;
        }
    }

    if (!out_file.empty()) {
        std::ofstream out(out_file);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         out_file.c_str());
            return 1;
        }
        sweep::sweepToJson(results).dump(out);
        out << '\n';
    }
    // Tables read every job of their matrix, so a filtered matrix
    // prints its JSON instead.
    if (filter.empty() && !matrix.printers.empty()) {
        if (status == 0)
            matrix.printTables(results);
    } else if (out_file.empty() && !record && !check) {
        sweep::sweepToJson(results).dump(std::cout);
        std::printf("\n");
    }

    if (record && status == 0) {
        for (const auto &r : results) {
            const std::string path =
                golden_dir + "/" + goldenFileName(r.id);
            stats::writeGoldenFile(path, sweep::resultToJson(r));
            std::fprintf(stderr, "recorded %s\n", path.c_str());
        }
    }

    if (check && status == 0) {
        std::size_t bad = 0;
        for (const auto &r : results) {
            const std::string path =
                golden_dir + "/" + goldenFileName(r.id);
            const auto golden = stats::readGoldenFile(path);
            const auto diffs =
                stats::compareGolden(golden, sweep::resultToJson(r));
            if (diffs.empty()) {
                if (!quiet)
                    std::fprintf(stderr, "ok: %s\n", r.id.c_str());
                continue;
            }
            ++bad;
            std::fprintf(stderr, "DRIFT in %s (%zu stats):\n",
                         r.id.c_str(), diffs.size());
            for (const auto &d : diffs)
                std::fprintf(stderr, "  %s\n", d.describe().c_str());
        }
        if (bad) {
            std::fprintf(stderr, "%zu of %zu jobs drifted\n", bad,
                         results.size());
            status = 1;
        } else {
            std::fprintf(stderr, "all %zu jobs match the goldens\n",
                         results.size());
        }
    }
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("sweep", 2, [&] { return run(argc, argv); });
}
