/**
 * @file
 * CLI driver for the bounded exhaustive model checker (src/model).
 *
 *   modelcheck [--depth N] [--config] [--stats]
 *              [--fault KIND] [--max-states N] [--progress]
 *
 * Exit status: 0 when the bounded search finds no violation, 1 when
 * a counterexample was found (it is printed, one op per line), 2 on
 * usage errors, printed as "modelcheck: <message>".
 */

#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "base/logging.hh"
#include "fuzz/schedule.hh"
#include "model/modelcheck.hh"
#include "sim/config_parser.hh"

namespace
{

using namespace mtlbsim;

int
usage()
{
    std::cerr
        << "usage: modelcheck [options]\n"
           "  --depth N      bound the op-sequence length (default 6)\n"
           "  --cores N      model-machine cores; ops dispatch on\n"
           "                 core i % N (default 1)\n"
           "  --config       print the model machine/alphabet and exit\n"
           "  --stats        print per-depth search statistics\n"
           "  --fault KIND   plant a FaultInjector corruption op and\n"
           "                 expect a minimal counterexample\n"
           "  --max-states N stop after N canonical states\n"
           "  --progress     one progress line per depth level\n";
    return 2;
}

void
printConfig(const model::ModelConfig &cfg)
{
    const fuzz::FuzzParams p = model::modelParams(cfg.cores);
    std::cout << "model machine:\n"
              << "  cores          " << p.cores << "\n"
              << "  tlb_entries    " << p.tlbEntries << "\n"
              << "  mtlb           " << p.mtlbEntries << " entries, "
              << p.mtlbAssoc << "-way\n"
              << "  user_frames    "
              << ((p.installedBytes - Addr{8} * 1024 * 1024) >>
                  basePageShift)
              << "\n"
              << "  cache_bytes    " << p.cacheBytes << "\n"
              << "  shadow_bytes   " << p.shadowBytes << "\n"
              << "  audit_every    " << p.auditEvery << "\n"
              << "alphabet (" << model::modelAlphabet(cfg).size()
              << " ops):\n";
    for (const fuzz::FuzzOp &op : model::modelAlphabet(cfg))
        std::cout << "  " << model::opToString(op) << "\n";
}

/** The program proper; main() turns its errors into exit status 2. */
int
run(int argc, char **argv)
{
    model::ModelConfig cfg;
    bool show_config = false;
    bool show_stats = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto operand = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "modelcheck: " << arg
                          << " needs an operand\n";
                std::exit(2);
            }
            return argv[++i];
        };
        // A numeric flag's operand passes the config parser's check.
        const auto count = [&]<typename T>(T &dest) {
            dest = static_cast<T>(parseCount(
                arg, operand(), std::numeric_limits<T>::max()));
        };
        if (arg == "--depth") {
            count(cfg.depth);
        } else if (arg == "--cores") {
            count(cfg.cores);
            if (cfg.cores == 0) {
                std::cerr << "modelcheck: --cores wants a positive "
                             "count\n";
                return 2;
            }
        } else if (arg == "--config") {
            show_config = true;
        } else if (arg == "--stats") {
            show_stats = true;
        } else if (arg == "--max-states") {
            count(cfg.maxStates);
        } else if (arg == "--progress") {
            cfg.progress = true;
        } else if (arg == "--fault") {
            const std::string name = operand();
            bool found = false;
            for (unsigned k = 0; k < fuzz::numFaultKinds; ++k) {
                const auto kind = static_cast<fuzz::FaultKind>(k);
                if (name == fuzz::faultKindName(kind)) {
                    cfg.plantFault = kind;
                    found = true;
                    break;
                }
            }
            if (!found) {
                std::cerr << "modelcheck: unknown fault kind '" << name
                          << "'; known kinds:\n";
                for (unsigned k = 0; k < fuzz::numFaultKinds; ++k) {
                    std::cerr << "  "
                              << fuzz::faultKindName(
                                     static_cast<fuzz::FaultKind>(k))
                              << "\n";
                }
                return 2;
            }
        } else {
            std::cerr << "modelcheck: unknown option '" << arg
                      << "'\n";
            return usage();
        }
    }

    if (show_config) {
        printConfig(cfg);
        return 0;
    }

    const model::ModelResult r = model::runModelCheck(cfg);

    std::cout << "modelcheck: depth " << cfg.depth << ": "
              << r.stats.statesExplored << " states explored, "
              << r.stats.statesPruned << " pruned, "
              << r.stats.edgesExecuted << " edges\n";
    if (r.truncated)
        std::cout << "modelcheck: truncated by --max-states\n";
    if (show_stats) {
        for (std::size_t d = 0; d < r.stats.levelSizes.size(); ++d) {
            std::cout << "  depth " << d << ": "
                      << r.stats.levelSizes[d] << " new states\n";
        }
    }

    if (r.failed) {
        std::cout << "modelcheck: VIOLATION [" << r.failure.detector
                  << "] " << r.failure.detail << "\n"
                  << "counterexample (" << r.counterexample.size()
                  << " ops):\n";
        for (const fuzz::FuzzOp &op : r.counterexample)
            std::cout << "  " << model::opToString(op) << "\n";
        return 1;
    }

    std::cout << "modelcheck: no violations within depth bound\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return mtlbsim::runMain("modelcheck", 2,
                            [&] { return run(argc, argv); });
}
