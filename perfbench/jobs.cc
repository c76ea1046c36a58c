#include "jobs.hh"

#include <fstream>
#include <memory>

#include "base/logging.hh"
#include "sim/config_parser.hh"
#include "workloads/multiprog.hh"
#include "workloads/workload.hh"

using namespace mtlbsim;

namespace perfbench
{

std::vector<std::string>
WorkloadSpec::jobs() const
{
    return mix ? std::vector<std::string>{"mix"} : programs;
}

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<std::string> fig3 = {
        "compress95", "vortex", "radix", "em3d", "cc1"};
    static const std::vector<WorkloadSpec> specs = {
        {"fig3-nomtlb", "fig3-nomtlb", 0.1, fig3, false,
         "64-entry TLB without an MTLB: TLB reach is the bottleneck, so "
         "host time goes to the TLB-miss trap, HPT probe and insert"},
        {"fig3-mtlb", "fig3-mtlb", 0.1, fig3, false,
         "same programs with the MTLB: TLB misses vanish, host time moves "
         "to the fast path and the cache-miss chain; setup pays remap()"},
        {"mix-audited", "mix-audited", 0.01,
         {"compress95", "vortex", "radix", "em3d", "cc1", "compress95",
          "vortex", "radix"},
         true,
         "8 processes on 4 cores with periodic audits: capture/replay, "
         "scheduler, shootdowns, MTLB port and the auditor"},
    };
    return specs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const auto &w : workloadSpecs()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

SystemConfig
loadMachine(const std::string &path, std::uint64_t seed)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot read machine definition ", path);
    std::string line;
    while (std::getline(in, line)) {
        const std::string key =
            line.substr(0, line.find_first_of("=#"))
                .erase(0, line.find_first_not_of(" \t"));
        fatalIf(key.rfind("cpu.l0", 0) == 0 ||
                    key.rfind("cpu.batch", 0) == 0,
                path, " sets the host-speed key '", key,
                "'; machine definitions hold modelled keys only");
    }
    ConfigParser parser;
    parser.parseFile(path);
    SystemConfig config = parser.config();
    if (seed != 0)
        config.kernel.frameSeed = seed ^ 0x9e3779b97f4a7c15ULL;
    return config;
}

json::Value
SimCounts::toJson() const
{
    json::Value v = json::Value::object();
    v.set("cycles", cycles);
    v.set("accesses", accesses);
    v.set("tlb_misses", tlbMisses);
    v.set("cache_misses", cacheMisses);
    return v;
}

SimCounts
SimCounts::fromJson(const json::Value &v)
{
    auto field = [&v](const char *key) {
        const json::Value *f = v.find(key);
        fatalIf(!f || !f->isNumber(), "reference lacks '", key, "'");
        return static_cast<std::uint64_t>(f->asNumber());
    };
    return {field("cycles"), field("accesses"), field("tlb_misses"),
            field("cache_misses")};
}

SimCounts
countsOf(System &sys)
{
    SimCounts c;
    c.cycles = sys.totalCycles();
    for (unsigned core = 0; core < sys.numCores(); ++core) {
        c.accesses += sys.cpu(core).dataAccesses();
        c.tlbMisses += sys.tlb(core).misses();
    }
    c.cacheMisses = sys.cache().misses();
    return c;
}

JobRun
runJob(const WorkloadSpec &w, const std::string &job,
       const SystemConfig &machine, std::uint64_t seed)
{
    JobRun r;
    try {
        const auto t0 = Clock::now();
        auto sys = std::make_unique<System>(machine);
        const auto t1 = Clock::now();
        auto t2 = t1;
        std::uint64_t setup_accesses = 0;
        if (w.mix) {
            runMultiprogMix(*sys, w.programs, w.scale, seed);
        } else {
            auto workload = makeWorkload(job, w.scale, seed);
            workload->setup(*sys);
            t2 = Clock::now();
            setup_accesses = sys->cpu().dataAccesses();
            workload->run(*sys);
        }
        const auto t3 = Clock::now();
        sys->audit();
        const auto t4 = Clock::now();
        r.stats = sys->rootStats().toJson();
        const auto t5 = Clock::now();
        r.counts = countsOf(*sys);
        r.measuredAccesses = r.counts.accesses - setup_accesses;
        sys.reset();
        const auto t6 = Clock::now();

        r.constructS = secondsBetween(t0, t1);
        r.setupS = secondsBetween(t1, t2);
        r.runS = secondsBetween(t2, t3);
        r.auditS = secondsBetween(t3, t4);
        r.dumpS = secondsBetween(t4, t5);
        r.wallS = secondsBetween(t0, t6);

        const double violations = statOf(r.stats, "check.violations");
        if (violations != 0) {
            r.error = "auditor reported " +
                      std::to_string(static_cast<long>(violations)) +
                      " violation(s)";
            return r;
        }
        r.ok = true;
    } catch (const FatalError &e) {
        r.error = std::string("fatal: ") + e.what();
    } catch (const PanicError &e) {
        r.error = std::string("panic: ") + e.what();
    }
    return r;
}

std::string
checkRun(const JobRun &r, const std::optional<SimCounts> &ref,
         const SimCounts *first)
{
    if (!r.ok)
        return r.error;
    auto differs = [&r](const char *what, const SimCounts &want) {
        return std::string(what) + ": got " + r.counts.toJson().dumped(0) +
               ", want " + want.toJson().dumped(0);
    };
    if (ref && r.counts != *ref)
        return differs("does not match the reference", *ref);
    if (first && r.counts != *first)
        return differs("does not repeat its first run", *first);
    return "";
}

References::References(const std::string &path)
    : path_(path), doc_(json::Value::object())
{
    std::ifstream in(path);
    if (in)
        doc_ = json::Value::parse(in);
}

std::optional<SimCounts>
References::find(const WorkloadSpec &w, double scale, std::uint64_t seed,
                 const std::string &job) const
{
    const json::Value *all = doc_.find("workloads");
    const json::Value *entry = all ? all->find(w.name) : nullptr;
    if (!entry)
        return std::nullopt;
    const json::Value *s = entry->find("scale");
    const json::Value *sd = entry->find("seed");
    if (!s || s->asNumber() != scale || !sd ||
        static_cast<std::uint64_t>(sd->asNumber()) != seed) {
        return std::nullopt;
    }
    const json::Value *jobs = entry->find("jobs");
    const json::Value *j = jobs ? jobs->find(job) : nullptr;
    if (!j)
        return std::nullopt;
    return SimCounts::fromJson(*j);
}

void
References::record(const WorkloadSpec &w, double scale, std::uint64_t seed,
                   const std::vector<std::pair<std::string, SimCounts>>
                       &counts)
{
    json::Value entry = json::Value::object();
    entry.set("scale", scale);
    entry.set("seed", seed);
    json::Value jobs = json::Value::object();
    for (const auto &[job, c] : counts)
        jobs.set(job, c.toJson());
    entry.set("jobs", std::move(jobs));

    const json::Value *prev = doc_.find("workloads");
    json::Value all = prev ? *prev : json::Value::object();
    all.set(w.name, std::move(entry));
    doc_.set("workloads", std::move(all));

    std::ofstream out(path_);
    fatalIf(!out, "cannot write ", path_);
    doc_.dump(out);
    out << "\n";
}

namespace
{

/** The group at dotted @p path below @p tree (null when absent). */
const json::Value *
groupAt(const json::Value &tree, const std::string &path)
{
    const json::Value *group = &tree;
    std::size_t start = 0;
    while (group && start < path.size()) {
        const std::size_t dot = path.find('.', start);
        const std::size_t end = dot == std::string::npos ? path.size()
                                                         : dot;
        const json::Value *children = group->find("groups");
        group = children ? children->find(path.substr(start, end - start))
                         : nullptr;
        start = end + 1;
    }
    return group;
}

double
statValue(const json::Value &stat)
{
    const json::Value *v = stat.find("value");
    return v && v->isNumber() ? v->asNumber() : 0.0;
}

} // namespace

double
statOf(const json::Value &tree, const std::string &path)
{
    const std::size_t dot = path.rfind('.');
    const json::Value *group =
        dot == std::string::npos ? &tree
                                 : groupAt(tree, path.substr(0, dot));
    const json::Value *stats = group ? group->find("stats") : nullptr;
    const json::Value *stat =
        stats ? stats->find(path.substr(dot + 1)) : nullptr;
    return stat ? statValue(*stat) : 0.0;
}

double
statAllCores(const json::Value &tree, const std::string &path)
{
    double sum = statOf(tree, path);
    for (unsigned core = 1;; ++core) {
        const json::Value *group =
            groupAt(tree, "core" + std::to_string(core));
        if (!group)
            return sum;
        sum += statOf(*group, path);
    }
}

double
statPrefixSum(const json::Value &tree, const std::string &group,
              const std::string &prefix)
{
    const json::Value *g = groupAt(tree, group);
    const json::Value *stats = g ? g->find("stats") : nullptr;
    double sum = 0;
    if (stats) {
        for (const auto &[name, stat] : stats->members()) {
            if (name.rfind(prefix, 0) == 0)
                sum += statValue(stat);
        }
    }
    return sum;
}

} // namespace perfbench
