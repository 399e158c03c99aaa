package paging

import (
	"errors"
	"fmt"

	"dsa/internal/addr"
	"dsa/internal/mapping"
	"dsa/internal/metrics"
	"dsa/internal/replace"
	"dsa/internal/sim"
	"dsa/internal/store"
)

// SegConfig assembles a SegPager: demand paging of a *segmented* name
// space through the two-level (segment table, page table) mapping of
// Figure 4, with a small associative memory short-circuiting the
// tables — the MULTICS / IBM 360/67 data path, where "the segment is
// not the unit of allocation; instead allocation is performed by a
// variant of the standard paging technique".
type SegConfig struct {
	// Clock is the shared simulation clock.
	Clock *sim.Clock
	// Working holds the page frames.
	Working *store.Level
	// Backing holds every segment's image.
	Backing *store.Level
	// PageSize is the uniform unit of allocation.
	PageSize uint64
	// Frames is the number of page frames.
	Frames int
	// MaxSegments bounds the segment table (16 on the 24-bit 360/67,
	// 4096 with 32-bit addressing).
	MaxSegments int
	// TLBSize is the associative-memory capacity (9 on the 360/67).
	TLBSize int
	// Policy selects victim (segment, page) pairs.
	Policy replace.Policy
	// LookupCost is charged per mapping-table level consulted.
	LookupCost sim.Time
	// FrameBase offsets frame 0 within the working level.
	FrameBase int
}

// segPage names one page of a segmented name space.
type segPage struct {
	seg  addr.SegID
	page uint64
}

// segState is the pager's bookkeeping for one established segment.
type segState struct {
	extent      addr.Name
	backingBase int
	// ids holds, indexed by page, the dense replacement id the pager
	// assigned the page on its first residency, plus one (0: the page
	// has never been resident).
	ids []replace.PageID
}

// SegPagerStats counts SegPager events.
type SegPagerStats struct {
	Refs       int64
	PageFaults int64
	PageIns    int64
	PageOuts   int64
	Writebacks int64
}

// SegPager is a demand-paging allocator for a segmented name space.
type SegPager struct {
	cfg  SegConfig
	m    *mapping.TwoLevel
	segs []*segState // indexed by segment id, nil until established
	st   *metrics.SpaceTime

	// pages maps the dense replacement ids handed to the policy back to
	// the pages they name. The policy indexes its state by id, and the
	// (segment, page) pairs are far from dense.
	pages       []segPage
	free        []int
	resident    int
	backingNext int
	stats       SegPagerStats
}

// NewSegPager validates the configuration and builds the pager.
func NewSegPager(cfg SegConfig) (*SegPager, error) {
	if cfg.Clock == nil || cfg.Working == nil || cfg.Backing == nil {
		return nil, errors.New("paging: clock, working and backing are required")
	}
	if cfg.PageSize == 0 || cfg.Frames <= 0 || cfg.MaxSegments <= 0 {
		return nil, fmt.Errorf("paging: bad segmented shape page %d, frames %d, segs %d",
			cfg.PageSize, cfg.Frames, cfg.MaxSegments)
	}
	if cfg.Policy == nil {
		return nil, errors.New("paging: nil replacement policy")
	}
	if need := cfg.FrameBase + cfg.Frames*int(cfg.PageSize); need > cfg.Working.Capacity() {
		return nil, fmt.Errorf("paging: %d frames of %d words exceed working storage %d",
			cfg.Frames, cfg.PageSize, cfg.Working.Capacity())
	}
	p := &SegPager{
		cfg:  cfg,
		m:    mapping.NewTwoLevel(cfg.Clock, cfg.MaxSegments, cfg.TLBSize, cfg.LookupCost),
		segs: make([]*segState, cfg.MaxSegments),
		st:   metrics.NewSpaceTime(cfg.Clock),
	}
	for f := cfg.Frames - 1; f >= 0; f-- {
		p.free = append(p.free, f)
	}
	return p, nil
}

// seg returns the state of an established segment, or nil.
func (p *SegPager) seg(seg addr.SegID) *segState {
	if uint64(seg) >= uint64(len(p.segs)) {
		return nil
	}
	return p.segs[seg]
}

// pageID returns the dense replacement id of (seg, page), assigning the
// next one on the page's first residency.
func (p *SegPager) pageID(s *segState, seg addr.SegID, page uint64) replace.PageID {
	if page >= uint64(len(s.ids)) {
		s.ids = append(s.ids, make([]replace.PageID, page+1-uint64(len(s.ids)))...)
	}
	if s.ids[page] == 0 {
		p.pages = append(p.pages, segPage{seg: seg, page: page})
		s.ids[page] = replace.PageID(len(p.pages))
	}
	return s.ids[page] - 1
}

// Mapping exposes the two-level mapper (TLB statistics, tables).
func (p *SegPager) Mapping() *mapping.TwoLevel { return p.m }

// Stats returns the counters so far.
func (p *SegPager) Stats() SegPagerStats { return p.stats }

// SpaceTime exposes the space-time accumulator.
func (p *SegPager) SpaceTime() *metrics.SpaceTime { return p.st }

// Establish creates a segment of the given extent: a backing image is
// reserved and a page table installed with every page absent, so the
// segment pages in on demand.
func (p *SegPager) Establish(seg addr.SegID, extent addr.Name) error {
	if extent == 0 {
		return fmt.Errorf("paging: zero extent for segment %d", seg)
	}
	if p.seg(seg) != nil {
		return fmt.Errorf("paging: segment %d already established", seg)
	}
	span := (uint64(extent) + p.cfg.PageSize - 1) / p.cfg.PageSize * p.cfg.PageSize
	if p.backingNext+int(span) > p.cfg.Backing.Capacity() {
		return fmt.Errorf("paging: backing storage exhausted for segment %d", seg)
	}
	if _, err := p.m.Establish(seg, extent, p.cfg.PageSize); err != nil {
		return err
	}
	p.segs[seg] = &segState{extent: extent, backingBase: p.backingNext}
	p.backingNext += int(span)
	return nil
}

// Grow changes a segment's extent, keeping resident pages mapped. The
// backing reservation is page-granular; growth beyond it reserves a
// fresh image and copies the old one.
func (p *SegPager) Grow(seg addr.SegID, extent addr.Name) error {
	s := p.seg(seg)
	if s == nil {
		return fmt.Errorf("%w: segment %d", addr.ErrUnknownSegment, seg)
	}
	if extent == 0 {
		return fmt.Errorf("paging: zero extent for segment %d", seg)
	}
	oldSpan := (uint64(s.extent) + p.cfg.PageSize - 1) / p.cfg.PageSize * p.cfg.PageSize
	newSpan := (uint64(extent) + p.cfg.PageSize - 1) / p.cfg.PageSize * p.cfg.PageSize
	if newSpan > oldSpan {
		if p.backingNext+int(newSpan) > p.cfg.Backing.Capacity() {
			return fmt.Errorf("paging: backing storage exhausted growing segment %d", seg)
		}
		newBase := p.backingNext
		p.backingNext += int(newSpan)
		if err := store.Transfer(p.cfg.Backing, s.backingBase, p.cfg.Backing, newBase, int(oldSpan)); err != nil {
			return err
		}
		s.backingBase = newBase
	}
	s.extent = extent
	return p.m.SetExtent(seg, extent)
}

// Read reads one word of a segment.
func (p *SegPager) Read(seg addr.SegID, off addr.Name) (uint64, error) {
	a, err := p.access(seg, off, false)
	if err != nil {
		return 0, err
	}
	return p.cfg.Working.ReadWord(int(a))
}

// Write writes one word of a segment.
func (p *SegPager) Write(seg addr.SegID, off addr.Name, v uint64) error {
	a, err := p.access(seg, off, true)
	if err != nil {
		return err
	}
	return p.cfg.Working.WriteWord(int(a), v)
}

// Touch references a word without transferring data to the caller.
func (p *SegPager) Touch(seg addr.SegID, off addr.Name, write bool) error {
	a, err := p.access(seg, off, write)
	if err != nil {
		return err
	}
	v, err := p.cfg.Working.ReadWord(int(a))
	if err != nil {
		return err
	}
	if write {
		return p.cfg.Working.WriteWord(int(a), v)
	}
	return nil
}

// access resolves (segment, offset) through the two-level mapping,
// servicing a page fault if one traps.
func (p *SegPager) access(seg addr.SegID, off addr.Name, write bool) (addr.Address, error) {
	p.stats.Refs++
	a, err := p.m.Translate(seg, off, write)
	if err == nil {
		// A hit means the page is resident, so it has its id already.
		id := p.segs[seg].ids[uint64(off)/p.cfg.PageSize] - 1
		p.cfg.Policy.Touch(id, p.cfg.Clock.Now(), write)
		return a + addr.Address(p.cfg.FrameBase), nil
	}
	// Translate returns the fault unwrapped; a type assertion avoids
	// the errors.As escape that otherwise costs one heap allocation
	// per reference, hit or miss.
	pf, ok := err.(*mapping.PageFault)
	if !ok {
		return 0, err
	}
	if ferr := p.pageFault(seg, pf.Page, write); ferr != nil {
		return 0, ferr
	}
	a, err = p.m.Translate(seg, off, write)
	if err != nil {
		return 0, fmt.Errorf("paging: segmented fault resolution failed: %w", err)
	}
	return a + addr.Address(p.cfg.FrameBase), nil
}

// pageFault brings (seg, page) into a frame, evicting if needed.
func (p *SegPager) pageFault(seg addr.SegID, page uint64, _ bool) error {
	p.stats.PageFaults++
	p.st.BeginWait()
	defer p.st.EndWait()

	s := p.seg(seg)
	if s == nil {
		return fmt.Errorf("%w: segment %d", addr.ErrUnknownSegment, seg)
	}
	frame, err := p.takeSegFrame()
	if err != nil {
		return err
	}
	words := p.pageSpan(s, page)
	if err := store.Transfer(p.cfg.Backing, s.backingBase+int(page*p.cfg.PageSize),
		p.cfg.Working, p.cfg.FrameBase+frame*int(p.cfg.PageSize), words); err != nil {
		return err
	}
	e, err := p.m.Segment(seg)
	if err != nil {
		return err
	}
	if err := e.Table.SetEntry(page, frame); err != nil {
		return err
	}
	p.resident++
	p.cfg.Policy.Insert(p.pageID(s, seg, page), p.cfg.Clock.Now())
	p.st.AddResident(int64(words))
	p.stats.PageIns++
	return nil
}

// pageSpan is the page's true extent within its segment.
func (p *SegPager) pageSpan(s *segState, page uint64) int {
	start := page * p.cfg.PageSize
	end := start + p.cfg.PageSize
	if end > uint64(s.extent) {
		end = uint64(s.extent)
	}
	return int(end - start)
}

// takeSegFrame returns a free frame, evicting a victim page if needed.
func (p *SegPager) takeSegFrame() (int, error) {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f, nil
	}
	v, err := p.cfg.Policy.Victim(p.cfg.Clock.Now())
	if err != nil {
		return 0, err
	}
	if uint64(v) >= uint64(len(p.pages)) {
		return 0, fmt.Errorf("paging: policy victim %d was never resident", v)
	}
	vSeg, vPage := p.pages[v].seg, p.pages[v].page
	s := p.seg(vSeg)
	e, err := p.m.Segment(vSeg)
	if err != nil || s == nil || e.Table == nil {
		return 0, fmt.Errorf("paging: victim %d/%d has no segment state", vSeg, vPage)
	}
	entry, err := e.Table.Invalidate(vPage)
	if err != nil {
		return 0, err
	}
	if !entry.Present {
		return 0, fmt.Errorf("paging: victim %d/%d not present", vSeg, vPage)
	}
	words := p.pageSpan(s, vPage)
	if entry.Modified {
		if err := store.Transfer(p.cfg.Working, p.cfg.FrameBase+entry.Frame*int(p.cfg.PageSize),
			p.cfg.Backing, s.backingBase+int(vPage*p.cfg.PageSize), words); err != nil {
			return 0, err
		}
		p.stats.Writebacks++
	}
	p.m.TLB().InvalidatePage(mapping.TLBKey{Seg: vSeg, Page: vPage})
	p.cfg.Policy.Remove(v)
	p.resident--
	p.st.AddResident(-int64(words))
	p.stats.PageOuts++
	return entry.Frame, nil
}

// ResidentPages reports how many pages are in frames.
func (p *SegPager) ResidentPages() int { return p.resident }
