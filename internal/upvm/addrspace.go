package upvm

import (
	"fmt"
	"sort"
)

// Region is a ULP's reserved virtual address range.
type Region struct {
	Base uint64
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Overlaps reports whether two regions share any address.
func (r Region) Overlaps(o Region) bool {
	return r.Base < o.End() && o.Base < r.End()
}

func (r Region) String() string {
	return fmt.Sprintf("[0x%08x, 0x%08x)", r.Base, r.End())
}

// AddressSpace is the global virtual-address layout manager. Its one job is
// the paper's pointer-safety invariant: every ULP's region is reserved at
// the same addresses in every process of the application, so migrating a
// ULP never requires pointer modification. (The paper also notes the
// downside this fixes onto 32-bit machines: the per-process address space
// bounds the total size of all ULPs — see Capacity.)
type AddressSpace struct {
	base    uint64
	limit   uint64
	next    uint64
	regions map[int]Region // ulp id → region
}

// Defaults model a 1994 32-bit HP-UX process: ~1.75 GB of usable private
// address space above the text segment.
const (
	defaultBase  = 0x4000_0000
	defaultLimit = 0xb000_0000
)

// NewAddressSpace returns an empty layout with the 32-bit HP-UX defaults.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{
		base:    defaultBase,
		limit:   defaultLimit,
		next:    defaultBase,
		regions: make(map[int]Region),
	}
}

// Reserve allocates a globally unique region of the given size for a ULP.
// Alignment is 8 KiB (the HP-PA page size of the era).
func (a *AddressSpace) Reserve(ulpID int, size int) (Region, error) {
	if _, ok := a.regions[ulpID]; ok {
		return Region{}, fmt.Errorf("upvm: ulp %d already has a region", ulpID)
	}
	const page = 8 << 10
	sz := (uint64(size) + page - 1) / page * page
	if sz == 0 {
		sz = page
	}
	if a.next+sz > a.limit {
		return Region{}, fmt.Errorf("upvm: address space exhausted (%d ULPs, next=0x%x)",
			len(a.regions), a.next)
	}
	r := Region{Base: a.next, Size: sz}
	a.next += sz
	a.regions[ulpID] = r
	return r, nil
}

// Capacity returns the remaining reservable bytes — the paper's "limit on
// the number of ULPs that could be created depending on the memory
// requirements of each ULP".
func (a *AddressSpace) Capacity() uint64 { return a.limit - a.next }

// Layout renders the allocation map (one line per ULP, ascending base),
// reproducing Figure 2's picture of globally unique ULP regions.
func (a *AddressSpace) Layout() string {
	ids := make([]int, 0, len(a.regions))
	for id := range a.regions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return a.regions[ids[i]].Base < a.regions[ids[j]].Base })
	out := fmt.Sprintf("address space %s, %d ULPs, %d MB free\n",
		Region{Base: a.base, Size: a.limit - a.base}, len(ids), a.Capacity()>>20)
	for _, id := range ids {
		r := a.regions[id]
		out += fmt.Sprintf("  ULP%-3d %s  (%d KB)\n", id, r, r.Size>>10)
	}
	return out
}

// Validate checks the global invariant: all regions pairwise disjoint and
// inside the managed range. It returns nil when the layout is sound.
func (a *AddressSpace) Validate() error {
	ids := make([]int, 0, len(a.regions))
	for id := range a.regions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		r := a.regions[id]
		if r.Base < a.base || r.End() > a.limit {
			return fmt.Errorf("upvm: ULP%d region %s outside managed range", id, r)
		}
		for _, jd := range ids[i+1:] {
			if r.Overlaps(a.regions[jd]) {
				return fmt.Errorf("upvm: ULP%d and ULP%d regions overlap", id, jd)
			}
		}
	}
	return nil
}
