#include "os/address_space.hh"

namespace mtlbsim
{

namespace
{

/** @p vpn's slot in its leaf node. */
std::size_t
slotOf(Addr vpn)
{
    return static_cast<std::size_t>(vpn & 0x3ff);
}

} // namespace

AddressSpace::AddressSpace(Addr pt_pool_base, Addr pool_bytes)
    : ptPoolBase_(pt_pool_base), ptPoolBytes_(pool_bytes),
      ptPoolCursor_(pt_pool_base + basePageSize) // slot 0 is the L1 node
{
    fatalIf(pool_bytes != 0 && pool_bytes < 2 * basePageSize,
            "page-table pool too small for the L1 node plus one L2");
}

void
AddressSpace::addRegion(const std::string &name, Addr base, Addr size,
                        PageProtection prot)
{
    fatalIf(base & basePageMask, "region base must be page aligned");
    fatalIf(size == 0 || (size & basePageMask),
            "region size must be a nonzero page multiple");
    for (const auto &r : regions_) {
        fatalIf(base < r.end() && r.base < base + size,
                "region '", name, "' overlaps region '", r.name, "'");
    }
    regions_.push_back({name, base, size, prot});
}

const VmRegion *
AddressSpace::findRegion(Addr vaddr) const
{
    for (const auto &r : regions_) {
        if (r.contains(vaddr))
            return &r;
    }
    return nullptr;
}

const VmRegion *
AddressSpace::findRegionByName(const std::string &name) const
{
    for (const auto &r : regions_) {
        if (r.name == name)
            return &r;
    }
    return nullptr;
}

const AddressSpace::PageNode *
AddressSpace::findNode(Addr vpn) const
{
    const Addr l1 = vpn >> nodeShift;
    if (l1 < lowNodes_.size())
        return lowNodes_[l1].get();
    auto it = highNodes_.find(l1);
    return it == highNodes_.end() ? nullptr : it->second.get();
}

AddressSpace::PageNode &
AddressSpace::nodeFor(Addr vpn)
{
    const Addr l1 = vpn >> nodeShift;
    std::unique_ptr<PageNode> &node =
        l1 < lowNodes_.size() ? lowNodes_[l1] : highNodes_[l1];
    if (!node)
        node = std::make_unique<PageNode>();
    return *node;
}

bool
AddressSpace::isPagePresent(Addr vaddr) const
{
    const Addr vpn = pageFrame(vaddr);
    const PageNode *node = findNode(vpn);
    return node && node->present.test(slotOf(vpn));
}

Addr
AddressSpace::frameOf(Addr vaddr) const
{
    const Addr vpn = pageFrame(vaddr);
    const PageNode *node = findNode(vpn);
    panicIf(!node || !node->present.test(slotOf(vpn)),
            "page not present: 0x", std::hex, vaddr);
    return node->pfn[slotOf(vpn)];
}

void
AddressSpace::installFrame(Addr vaddr, Addr pfn, MappingEdit &edit)
{
    fatalIf(pfn > UINT32_MAX, "PFN 0x", std::hex, pfn,
            " exceeds the page table's 4-byte entry");
    const Addr vpn = pageFrame(vaddr);
    PageNode &node = nodeFor(vpn);
    panicIf(node.present.test(slotOf(vpn)),
            "page already present: 0x", std::hex, vaddr);
    node.present.set(slotOf(vpn));
    node.pfn[slotOf(vpn)] = static_cast<std::uint32_t>(pfn);
    ++numPresent_;
    edit.notify(&KernelObserver::onPageMapped, pageBase(vaddr), pfn);
}

Addr
AddressSpace::removeFrame(Addr vaddr, TranslationEdit &edit)
{
    panicIf(!isPagePresent(vaddr),
            "removing absent page: 0x", std::hex, vaddr);
    const Addr vpn = pageFrame(vaddr);
    PageNode &node = nodeFor(vpn);
    node.present.reset(slotOf(vpn));
    const Addr pfn = node.pfn[slotOf(vpn)];
    --numPresent_;
    edit.notify(&KernelObserver::onPageUnmapped, pageBase(vaddr), pfn);
    return pfn;
}

void
AddressSpace::addSuperpage(const ShadowSuperpage &sp, MappingEdit &edit)
{
    const Addr size = sp.size();
    fatalIf(sp.vbase & (size - 1),
            "superpage virtual base not aligned to its size");
    fatalIf(sp.shadowBase & (size - 1),
            "superpage shadow base not aligned to its size");
    auto [it, inserted] = superpages_.emplace(sp.vbase, sp);
    (void)it;
    panicIf(!inserted, "duplicate superpage at 0x", std::hex, sp.vbase);
    edit.notify(&KernelObserver::onSuperpageCreated, sp.vbase,
                sp.shadowBase, sp.sizeClass);
}

void
AddressSpace::removeSuperpage(Addr vbase, MappingEdit &edit)
{
    panicIf(superpages_.erase(vbase) == 0,
            "no superpage at 0x", std::hex, vbase);
    edit.notify(&KernelObserver::onSuperpageDemoted, vbase);
}

const ShadowSuperpage *
AddressSpace::findSuperpage(Addr vaddr) const
{
    // The first superpage with vbase <= vaddr is the only candidate,
    // since superpages never overlap.
    auto it = superpages_.upper_bound(vaddr);
    if (it == superpages_.begin())
        return nullptr;
    --it;
    return it->second.covers(vaddr) ? &it->second : nullptr;
}

Addr
AddressSpace::l1EntryAddr(Addr vaddr) const
{
    const Addr l1_index = (vaddr >> 22) & 0x3ff;
    return ptPoolBase_ + l1_index * 4;
}

Addr
AddressSpace::l2EntryAddr(Addr vaddr)
{
    const Addr l1_index = (vaddr >> 22) & 0x3ff;
    const Addr l2_index = (vaddr >> basePageShift) & 0x3ff;
    auto it = l2Nodes_.find(l1_index);
    if (it == l2Nodes_.end()) {
        const Addr node = ptPoolCursor_;
        fatalIf(ptPoolBytes_ != 0 &&
                    node + basePageSize > ptPoolBase_ + ptPoolBytes_,
                "page-table pool exhausted at 0x", std::hex, node);
        ptPoolCursor_ += basePageSize;
        it = l2Nodes_.emplace(l1_index, node).first;
    }
    return it->second + l2_index * 4;
}

} // namespace mtlbsim
