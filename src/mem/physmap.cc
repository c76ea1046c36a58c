#include "mem/physmap.hh"

#include "base/intmath.hh"

namespace mtlbsim
{

PhysMap::PhysMap(Addr installed_bytes, AddrRange shadow, unsigned addr_bits)
    : installedBytes_(installed_bytes), shadow_(shadow)
{
    fatalIf(installed_bytes == 0, "no DRAM installed");
    fatalIf(installed_bytes & basePageMask,
            "installed DRAM must be page aligned: ", installed_bytes);
    fatalIf(addr_bits < 20 || addr_bits > 52,
            "implausible physical address width: ", addr_bits);

    const Addr limit = Addr{1} << addr_bits;
    fatalIf(installed_bytes > limit,
            "installed DRAM exceeds the physical address space");

    if (shadow_.size > 0) {
        fatalIf(shadow_.base & basePageMask,
                "shadow region must be page aligned");
        fatalIf(shadow_.size & basePageMask,
                "shadow region size must be page aligned");
        fatalIf(shadow_.base < installed_bytes,
                "shadow region overlaps installed DRAM");
        fatalIf(shadow_.end() > limit,
                "shadow region exceeds the physical address space");
    }
}

void
PhysMap::addIoHole(AddrRange range)
{
    fatalIf(range.size == 0, "empty I/O hole");
    fatalIf(range.base < installedBytes_,
            "I/O hole overlaps installed DRAM");
    ioHoles_.push_back(range);
}

} // namespace mtlbsim
