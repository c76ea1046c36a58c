#include "workloads/oltp.hh"

#include "base/intmath.hh"

namespace mtlbsim
{

OltpWorkload::OltpWorkload(const OltpConfig &config) : config_(config)
{
    fatalIf(config.numRecords == 0, "oltp needs records");
    fatalIf(config.treeFanout < 2, "tree fanout must be >= 2");
}

Addr
OltpWorkload::recordAddr(unsigned record) const
{
    return tableBase_ + Addr{record} * config_.recordBytes;
}

void
OltpWorkload::setup(System &sys)
{
    Cpu &cpu = sys.cpu();
    Kernel &kernel = sys.kernel();
    AddressSpace &space = kernel.addressSpace();

    codeBase_ = UserLayout::textBase;
    space.addRegion("text", codeBase_, 96 * basePageSize,
                    PageProtection{false, true});
    space.addRegion("stack", UserLayout::stackBase,
                    UserLayout::stackBytes, PageProtection{});

    // The engine allocates its table, index, and log through the
    // superpage-aware sbrk, like vortex/cc1 (§2.3).
    kernel.initHeap(UserLayout::heapBase, UserLayout::heapMaxBytes);
    cpu.setSbrkPrealloc(config_.preallocBytes);

    cpu.executeAt(300'000, codeBase_);  // engine startup

    // Table.
    const Addr table_bytes =
        roundUp(Addr{config_.numRecords} * config_.recordBytes, 16);
    tableBase_ = cpu.sbrk(table_bytes);

    // Index, bottom-up, nodes interleaved after the table.
    const Addr node_bytes = 16 + Addr{config_.treeFanout} * 8;
    std::size_t level_count =
        divCeil(config_.numRecords, config_.treeFanout);
    std::vector<std::vector<Addr>> levels;
    while (true) {
        std::vector<Addr> level;
        level.reserve(level_count);
        const Addr level_base =
            cpu.sbrk(roundUp(Addr{level_count} * node_bytes, 16));
        for (std::size_t n = 0; n < level_count; ++n)
            level.push_back(level_base + Addr{n} * node_bytes);
        levels.push_back(std::move(level));
        if (level_count == 1)
            break;
        level_count = divCeil(level_count, config_.treeFanout);
    }
    treeLevels_.assign(levels.rbegin(), levels.rend());

    // Redo log: 4 MB ring.
    logBase_ = cpu.sbrk(4 * 1024 * 1024);
    logCursor_ = logBase_;

    // Populate: write every record once (sequential bulk load) and
    // initialise the index nodes.
    for (unsigned r = 0; r < config_.numRecords; ++r) {
        cpu.executeAt(6, codeBase_ + (r % 5) * basePageSize);
        cpu.store(recordAddr(r));
        cpu.store(recordAddr(r) + 64);
    }
    for (const auto &level : treeLevels_) {
        for (const Addr node : level) {
            cpu.execute(8);
            cpu.store(node);
            cpu.store(node + 16);
        }
    }
}

void
OltpWorkload::run(System &sys)
{
    Cpu &cpu = sys.cpu();
    Random rng(config_.seed ^ 0xbeef);

    const Addr log_end = logBase_ + 4 * 1024 * 1024;

    for (unsigned t = 0; t < config_.transactions; ++t) {
        // Key choice: mostly from a scattered hot set (sparse in
        // pages, dense in lines), occasionally uniform.
        unsigned key;
        if (rng.chance(config_.hotPercent, 100)) {
            const unsigned hot_count =
                config_.numRecords / config_.hotFraction + 1;
            key = static_cast<unsigned>(
                (rng.below(hot_count) * 2654435761ULL) %
                config_.numRecords);
        } else {
            key = static_cast<unsigned>(
                rng.below(config_.numRecords));
        }

        // Index descent.
        std::size_t index = key;
        for (std::size_t lvl = 0; lvl < treeLevels_.size(); ++lvl) {
            std::size_t span = 1;
            for (std::size_t below = lvl + 1;
                 below < treeLevels_.size(); ++below)
                span *= config_.treeFanout;
            const Addr node =
                treeLevels_[lvl][(index / span) %
                                 treeLevels_[lvl].size()];
            cpu.executeAt(9, codeBase_ + ((lvl + 7) % 41) *
                                             basePageSize);
            cpu.load(node);
            cpu.load(node + 16 + (index % config_.treeFanout) * 8);
        }

        // Record read.
        const Addr rec = recordAddr(key);
        cpu.executeAt(12, codeBase_ + (t % 37) * basePageSize);
        cpu.load(rec);
        cpu.load(rec + 24);
        cpu.load(rec + 88);

        if (rng.below(100) < config_.updatePercent) {
            // Update: write the record and append to the redo log.
            cpu.execute(8);
            cpu.store(rec + 8);
            cpu.store(rec + 96);
            for (unsigned w = 0; w < 3; ++w) {
                cpu.store(logCursor_);
                logCursor_ += 32;
                if (logCursor_ >= log_end)
                    logCursor_ = logBase_;
            }
        }
    }
}

} // namespace mtlbsim
