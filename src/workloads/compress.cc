#include "workloads/compress.hh"

#include "base/intmath.hh"
#include "base/random.hh"

namespace mtlbsim
{

namespace
{

/** Region base offsets chosen so the three buffers get different
 *  sub-superpage alignments, reproducing the paper's 13/7/13
 *  superpage splits for identical 999,424-byte lengths. */
constexpr Addr tablesOffset = 0x4000;   // 16 KB aligned
constexpr Addr origOffset = 0x4000;     // 16 KB aligned
constexpr Addr compOffset = 0x10000;    // 64 KB aligned
constexpr Addr decompOffset = 0xc000;   // 16 KB (not 64 KB) aligned

constexpr Addr bufferRemapBytes = 999'424;  // §3.1
constexpr Addr tablesRemapBytes = 557'056;  // §3.1

} // namespace

CompressWorkload::CompressWorkload(const CompressConfig &config)
    : config_(config)
{
    fatalIf(config.inputChars == 0, "compress needs input");
    fatalIf(config.cycles == 0, "compress needs at least one cycle");
}

Addr
CompressWorkload::htabAddr(unsigned i) const
{
    return tablesBase_ + Addr{i} * 4;
}

Addr
CompressWorkload::codetabAddr(unsigned i) const
{
    // codetab follows htab (with the "intervening data structures"
    // the paper mentions living between them).
    return tablesBase_ + Addr{hashSize} * 4 + 0x2000 + Addr{i} * 2;
}

Addr
CompressWorkload::origAddr(std::size_t i) const
{
    return origBase_ + i;
}

Addr
CompressWorkload::compAddr(std::size_t i) const
{
    return compBase_ + i;
}

Addr
CompressWorkload::decompAddr(std::size_t i) const
{
    return decompBase_ + i;
}

void
CompressWorkload::setup(System &sys)
{
    Cpu &cpu = sys.cpu();
    AddressSpace &space = sys.kernel().addressSpace();

    codeBase_ = UserLayout::textBase;
    space.addRegion("text", codeBase_, 20 * basePageSize,
                    PageProtection{false, true});
    space.addRegion("stack", UserLayout::stackBase,
                    UserLayout::stackBytes, PageProtection{});

    // Lay out the four data regions in distinct 4 MB windows so
    // each gets its own alignment.
    tablesBase_ = UserLayout::dataBase + tablesOffset;
    origBase_ = UserLayout::dataBase + 0x400000 + origOffset;
    compBase_ = UserLayout::dataBase + 0x800000 + compOffset;
    decompBase_ = UserLayout::dataBase + 0xc00000 + decompOffset;

    const Addr buf_bytes =
        roundUp(config_.inputChars + 4096, basePageSize);
    space.addRegion("tables", pageBase(tablesBase_),
                    roundUp(tablesRemapBytes + tablesOffset,
                            basePageSize),
                    PageProtection{});
    space.addRegion("orig", pageBase(origBase_),
                    buf_bytes + basePageSize, PageProtection{});
    space.addRegion("comp", pageBase(compBase_),
                    buf_bytes + 16 * basePageSize, PageProtection{});
    space.addRegion("decomp", pageBase(decompBase_),
                    buf_bytes + 3 * basePageSize, PageProtection{});

    cpu.executeAt(100'000, codeBase_);  // startup

    // Generate the input: words from a skewed vocabulary — text-like
    // redundancy so LZW actually compresses.
    Random rng(config_.seed);
    std::vector<std::string> vocab;
    for (unsigned w = 0; w < 512; ++w) {
        std::string word;
        const unsigned len = 3 + static_cast<unsigned>(rng.below(8));
        for (unsigned i = 0; i < len; ++i)
            word.push_back(
                static_cast<char>('a' + rng.below(26)));
        vocab.push_back(word);
    }

    input_.clear();
    input_.reserve(config_.inputChars);
    while (input_.size() < config_.inputChars) {
        // Zipf-ish pick: prefer low indices.
        const auto r = rng.below(vocab.size() * vocab.size());
        const auto idx = static_cast<std::size_t>(
            vocab.size() - 1 -
            static_cast<std::size_t>(
                std::uint64_t(r) * r /
                (vocab.size() * vocab.size() * vocab.size())));
        const std::string &word = vocab[idx % vocab.size()];
        for (const char c : word) {
            if (input_.size() >= config_.inputChars)
                break;
            input_.push_back(static_cast<std::uint8_t>(c));
        }
        if (input_.size() < config_.inputChars)
            input_.push_back(' ');
    }

    // Write the input into the original buffer on the machine.
    for (std::size_t i = 0; i < input_.size(); ++i) {
        cpu.executeAt(2, codeBase_);
        cpu.store(origAddr(i));
    }

    // §3.1: remap the table region and the initial portion of each
    // buffer (999,424 bytes at full scale; capped to the buffer when
    // a scaled-down run uses smaller buffers).
    const Addr buf_remap =
        bufferRemapBytes < buf_bytes ? bufferRemapBytes : buf_bytes;
    cpu.remap(tablesBase_, tablesRemapBytes);
    cpu.remap(origBase_, buf_remap);
    cpu.remap(compBase_, buf_remap);
    cpu.remap(decompBase_, buf_remap);
}

std::vector<std::uint16_t>
CompressWorkload::compressPass(System &sys)
{
    Cpu &cpu = sys.cpu();

    // Host-shadow of the simulated tables, so the algorithm really
    // runs while every probe also hits the simulated addresses.
    std::vector<std::int64_t> htab(hashSize, -1);
    std::vector<std::uint16_t> codetab(hashSize, 0);
    std::vector<std::uint16_t> out;
    out.reserve(input_.size() / 2);

    const unsigned maxCode = (1u << maxBits) - 1;
    unsigned free_ent = firstCode;
    std::size_t out_pos = 0;

    std::int64_t ent = input_[0];
    cpu.executeAt(4, codeBase_);
    cpu.load(origAddr(0));

    for (std::size_t pos = 1; pos < input_.size(); ++pos) {
        const unsigned c = input_[pos];
        // getbyte, hash computation, ratio bookkeeping, and output
        // bit-packing amortise to ~14 instructions per input char in
        // compress 4.0.
        cpu.executeAt(14, codeBase_);
        cpu.load(origAddr(pos));

        const std::int64_t fcode =
            (static_cast<std::int64_t>(c) << maxBits) + ent;
        unsigned i = static_cast<unsigned>(
                         (c << 8) ^ static_cast<unsigned>(ent)) %
                     hashSize;

        bool found = false;
        // Primary probe.
        cpu.load(htabAddr(i));
        if (htab[i] == fcode) {
            cpu.load(codetabAddr(i));
            ent = codetab[i];
            found = true;
        } else if (htab[i] >= 0) {
            // Secondary probing, as in compress 4.0.
            const unsigned disp =
                i == 0 ? 1 : hashSize - i;
            while (true) {
                cpu.executeAt(4, codeBase_);
                i = i >= disp ? i - disp : i + hashSize - disp;
                cpu.load(htabAddr(i));
                if (htab[i] == fcode) {
                    cpu.load(codetabAddr(i));
                    ent = codetab[i];
                    found = true;
                    break;
                }
                if (htab[i] < 0)
                    break;
            }
        }

        if (!found) {
            // Emit the current prefix code and insert the new string.
            out.push_back(static_cast<std::uint16_t>(ent));
            cpu.executeAt(5, codeBase_);
            cpu.store(compAddr(out_pos));
            out_pos += 2;

            if (free_ent < maxCode) {
                codetab[i] = static_cast<std::uint16_t>(free_ent++);
                htab[i] = fcode;
                cpu.store(codetabAddr(i));
                cpu.store(htabAddr(i));
            } else {
                // Block compress: emit CLEAR and reset the tables.
                out.push_back(clearCode);
                cpu.executeAt(4, codeBase_);
                cpu.store(compAddr(out_pos));
                out_pos += 2;
                for (unsigned j = 0; j < hashSize; j += 8) {
                    // memset-style cache-line-at-a-time clear.
                    cpu.execute(2);
                    cpu.store(htabAddr(j));
                }
                std::fill(htab.begin(), htab.end(), -1);
                free_ent = firstCode;
            }
            ent = c;
        }
    }

    out.push_back(static_cast<std::uint16_t>(ent));
    cpu.executeAt(4, codeBase_);
    cpu.store(compAddr(out_pos));

    return out;
}

void
CompressWorkload::decompressPass(System &sys,
                                 const std::vector<std::uint16_t> &codes)
{
    Cpu &cpu = sys.cpu();

    // tab_prefix reuses htab's storage; tab_suffix reuses codetab's,
    // as in the original.
    std::vector<std::uint16_t> prefix(1u << maxBits, 0);
    std::vector<std::uint8_t> suffix(1u << maxBits, 0);
    std::vector<std::uint8_t> stack;
    std::vector<std::uint8_t> output;
    output.reserve(input_.size());

    unsigned free_ent = firstCode;
    std::size_t out_pos = 0;

    for (unsigned code = 0; code < 256; ++code)
        suffix[code] = static_cast<std::uint8_t>(code);

    std::size_t idx = 0;
    unsigned old_code = codes[idx++];
    cpu.executeAt(6, codeBase_);
    cpu.load(compAddr(0));
    unsigned final_char = old_code;
    output.push_back(static_cast<std::uint8_t>(final_char));
    cpu.store(decompAddr(out_pos++));

    for (; idx < codes.size(); ++idx) {
        unsigned code = codes[idx];
        cpu.executeAt(6, codeBase_);
        cpu.load(compAddr(idx * 2));

        if (code == clearCode) {
            free_ent = firstCode;
            // Table reset: no memory traffic needed beyond control.
            cpu.executeAt(16, codeBase_);
            if (idx + 1 >= codes.size())
                break;
            code = codes[++idx];
            old_code = code;
            final_char = code;
            output.push_back(static_cast<std::uint8_t>(code));
            cpu.load(compAddr(idx * 2));
            cpu.store(decompAddr(out_pos++));
            continue;
        }

        const unsigned in_code = code;
        stack.clear();

        if (code >= free_ent) {
            // KwKwK special case.
            stack.push_back(static_cast<std::uint8_t>(final_char));
            code = old_code;
            cpu.executeAt(3, codeBase_);
        }

        // Walk the prefix chain — the random-access pattern that
        // makes decompression TLB-hostile.
        while (code >= 256) {
            cpu.executeAt(3, codeBase_);
            cpu.load(htabAddr(code));       // tab_prefix access
            cpu.load(codetabAddr(code));    // tab_suffix access
            stack.push_back(suffix[code]);
            code = prefix[code];
        }
        final_char = code;
        stack.push_back(static_cast<std::uint8_t>(code));
        cpu.load(codetabAddr(code));

        for (std::size_t s = stack.size(); s-- > 0;) {
            cpu.executeAt(2, codeBase_);
            output.push_back(stack[s]);
            cpu.store(decompAddr(out_pos++));
        }

        if (free_ent < (1u << maxBits)) {
            prefix[free_ent] = static_cast<std::uint16_t>(old_code);
            suffix[free_ent] = static_cast<std::uint8_t>(final_char);
            cpu.store(htabAddr(free_ent));
            cpu.store(codetabAddr(free_ent));
            ++free_ent;
        }
        old_code = in_code;
    }

    // Round-trip honesty check.
    fatalIf(output.size() != input_.size(),
            "compress round trip length mismatch: ", output.size(),
            " vs ", input_.size());
    for (std::size_t i = 0; i < output.size(); ++i) {
        panicIf(output[i] != input_[i],
                "compress round trip corrupted at byte ", i);
    }
}

void
CompressWorkload::run(System &sys)
{
    for (unsigned cycle = 0; cycle < config_.cycles; ++cycle) {
        const auto codes = compressPass(sys);
        decompressPass(sys, codes);
    }
}

} // namespace mtlbsim
