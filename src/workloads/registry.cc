/**
 * @file
 * Workload factory.
 */

#include "workloads/workload.hh"

#include "base/logging.hh"
#include "workloads/compress.hh"
#include "workloads/em3d.hh"
#include "workloads/gcc.hh"
#include "workloads/oltp.hh"
#include "workloads/radix.hh"
#include "workloads/vortex.hh"

namespace mtlbsim
{

namespace
{

/** Scale a count, keeping it at least @p floor. */
template <typename T>
T
scaled(T value, double scale, T floor)
{
    const double v = static_cast<double>(value) * scale;
    const T result = static_cast<T>(v);
    return result < floor ? floor : result;
}

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, double scale, std::uint64_t seed)
{
    // Written so that a NaN scale fails too.
    fatalIf(!(scale > 0.0 && scale <= 1.0),
            "workload scale must be in (0, 1], got ", scale);

    if (name == "compress95") {
        CompressConfig c;
        c.inputChars = scaled(c.inputChars, scale, std::size_t{20'000});
        if (seed)
            c.seed = seed;
        return std::make_unique<CompressWorkload>(c);
    }
    if (name == "vortex") {
        VortexConfig c;
        c.objectsPerDb = scaled(c.objectsPerDb, scale, 500u);
        c.transactions = scaled(c.transactions, scale, 2'000u);
        c.initialPreallocBytes =
            scaled(c.initialPreallocBytes, scale, Addr{256} * 1024);
        c.laterPreallocBytes =
            scaled(c.laterPreallocBytes, scale, Addr{64} * 1024);
        if (seed)
            c.seed = seed;
        return std::make_unique<VortexWorkload>(c);
    }
    if (name == "radix") {
        RadixConfig c;
        c.numKeys = scaled(c.numKeys, scale, std::size_t{16'384});
        if (seed)
            c.seed = seed;
        return std::make_unique<RadixWorkload>(c);
    }
    if (name == "em3d") {
        Em3dConfig c;
        c.numNodes = scaled(c.numNodes, scale, 600u);
        c.iterations = scaled(c.iterations, scale, 4u);
        if (seed)
            c.seed = seed;
        return std::make_unique<Em3dWorkload>(c);
    }
    if (name == "cc1") {
        GccConfig c;
        c.functions = scaled(c.functions, scale, 4u);
        c.preallocBytes =
            scaled(c.preallocBytes, scale, Addr{256} * 1024);
        if (seed)
            c.seed = seed;
        return std::make_unique<GccWorkload>(c);
    }
    if (name == "oltp") {
        // The §1/§6 commercial-projection workload — not part of the
        // paper's five (and so absent from allWorkloadNames()).
        OltpConfig c;
        c.numRecords = scaled(c.numRecords, scale, 4'000u);
        c.transactions = scaled(c.transactions, scale, 3'000u);
        c.preallocBytes =
            scaled(c.preallocBytes, scale, Addr{512} * 1024);
        if (seed)
            c.seed = seed;
        return std::make_unique<OltpWorkload>(c);
    }
    fatal("unknown workload '", name,
          "'; expected one of compress95, vortex, radix, em3d, cc1, "
          "or oltp");
}

std::vector<std::string>
allWorkloadNames()
{
    return {"compress95", "vortex", "radix", "em3d", "cc1"};
}

} // namespace mtlbsim
