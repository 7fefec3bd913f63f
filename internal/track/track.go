// Package track implements exact-address read/write-dominance tracking as
// defined by Clank (paper Section 3.2): within one checkpoint interval, a
// location is read-dominated if its first access was a read and
// write-dominated if its first access was a write. A write to a
// read-dominated location is a WAR (idempotency) violation.
//
// The tracker is byte-granular (stored as per-word bitmasks) so that
// sub-word accesses are classified exactly. It is used three ways: as the
// idealized Clank baseline's hardware tracker, as Oracle NACHO's perfect WAR
// detector, and as ReplayCache's idempotent-region former.
package track

import "sync"

// Tracker records first-access dominance per byte since the last Reset.
// Accesses are naturally aligned, so each falls inside one word.
type Tracker struct {
	// words holds two 4-bit masks per word: low nibble = byte seen, high
	// nibble = byte read-dominated.
	words Words
}

// New returns an empty tracker.
func New() *Tracker { return &Tracker{} }

func byteMask(addr uint32, size int) uint8 {
	return uint8((1<<size - 1) << (addr & 3))
}

// ObserveRead records a read of size bytes at addr: any byte not yet seen in
// this interval becomes read-dominated.
func (t *Tracker) ObserveRead(addr uint32, size int) {
	e := t.words.Ref(addr)
	newBytes := byteMask(addr, size) &^ *e
	*e |= newBytes | newBytes<<4
}

// ObserveWrite records a write of size bytes at addr and reports whether any
// written byte was read-dominated (i.e. whether this write, if it reached
// NVM, would be a WAR violation). Bytes not yet seen become write-dominated.
func (t *Tracker) ObserveWrite(addr uint32, size int) (violation bool) {
	e := t.words.Ref(addr)
	m := byteMask(addr, size)
	violation = *e>>4&m != 0
	*e |= m // mark seen; read-dominated nibble unchanged
	return violation
}

// ReadDominated reports whether any of size bytes at addr is currently
// read-dominated (Oracle NACHO's eviction-safety check).
func (t *Tracker) ReadDominated(addr uint32, size int) bool {
	return t.words.Get(addr)>>4&byteMask(addr, size) != 0
}

// Clone returns an independent copy of the tracker's interval state (used
// when forking a machine mid-interval).
func (t *Tracker) Clone() *Tracker { return &Tracker{words: t.words.Clone()} }

// Reset clears the interval (called at each checkpoint / region boundary).
func (t *Tracker) Reset() { t.words.Reset() }

// Release gives the tracker's pages back (Words.Release) once its owner is
// done with it.
func (t *Tracker) Release() { t.words.Release() }

// Equal reports whether two trackers hold the same interval state, however
// many times each was reset (Words.Equal).
func (t *Tracker) Equal(o *Tracker) bool { return t.words.Equal(&o.words) }

// Len returns the number of tracked words (test/inspection helper).
func (t *Tracker) Len() int { return t.words.Len() }

// The page table behind Words: a root slice of leaves, each leaf covering
// 1<<leafBits pages of 1<<pageBits bytes of address space, one state byte
// per word. The root grows only as far as the highest leaf touched. Pages
// cover 1 KiB, like package mem's: a page is cleared on its first write in
// an interval and copied by Clone, so small pages keep both cheap.
const (
	pageBits     = 10
	leafBits     = 6
	leafSize     = 1 << leafBits
	rootShift    = pageBits + leafBits
	wordsPerPage = 1 << (pageBits - 2)
)

// Words holds one state byte per 32-bit word for the current interval.
// Reset forgets every word in O(1): each page carries the generation it was
// last written in, and a page of an older generation reads as zeros and is
// cleared on its next write. The zero value is an empty table.
type Words struct {
	gen  uint16
	root []*wordLeaf
	live []*wordPage // the pages stamped with gen, for Clone and Len
}

type wordLeaf [leafSize]*wordPage

// The free lists Release fills and insert, refresh and Clone draw from. A
// pooled leaf is empty; a pooled page keeps its stale words, so refresh
// clears every page it stamps.
var (
	freeLeaves = sync.Pool{New: func() any { return new(wordLeaf) }}
	freePages  = sync.Pool{New: func() any { return new(wordPage) }}
)

type wordPage struct {
	gen uint16
	key uint32 // addr >> pageBits
	w   [wordsPerPage]uint8
}

// page returns the page holding addr, stale or not, or nil.
func (t *Words) page(addr uint32) *wordPage {
	if i := addr >> rootShift; i < uint32(len(t.root)) {
		if l := t.root[i]; l != nil {
			return l[addr>>pageBits&(leafSize-1)]
		}
	}
	return nil
}

// Get returns the state of the word holding addr: zero unless written since
// the last Reset.
func (t *Words) Get(addr uint32) uint8 {
	if p := t.page(addr); p != nil && p.gen == t.gen {
		return p.w[addr>>2&(wordsPerPage-1)]
	}
	return 0
}

// Ref returns the state of the word holding addr for update.
func (t *Words) Ref(addr uint32) *uint8 {
	p := t.page(addr)
	if p == nil || p.gen != t.gen {
		p = t.refresh(addr, p)
	}
	return &p.w[addr>>2&(wordsPerPage-1)]
}

// refresh stamps the page holding addr (p, or a new page when p is nil)
// with the current generation, clearing what an older generation or an
// earlier table left.
func (t *Words) refresh(addr uint32, p *wordPage) *wordPage {
	if p == nil {
		p = freePages.Get().(*wordPage)
		p.key = addr >> pageBits
		t.insert(p)
	}
	clear(p.w[:])
	p.gen = t.gen
	t.live = append(t.live, p)
	return p
}

func (t *Words) insert(p *wordPage) {
	i := p.key >> leafBits
	if i >= uint32(len(t.root)) {
		t.root = append(t.root, make([]*wordLeaf, int(i)+1-len(t.root))...)
	}
	if t.root[i] == nil {
		t.root[i] = freeLeaves.Get().(*wordLeaf)
	}
	t.root[i][p.key&(leafSize-1)] = p
}

// Reset forgets every word by advancing the generation.
func (t *Words) Reset() {
	t.live = t.live[:0]
	t.gen++
	if t.gen == 0 {
		// The stamp wrapped, so a page last stamped 1<<16 resets ago would
		// read as current: stamp every page stale.
		for _, l := range t.root {
			if l != nil {
				for _, p := range l {
					if p != nil {
						p.gen = 0
					}
				}
			}
		}
		t.gen = 1
	}
}

// Release puts every page and leaf of the table on the free lists and
// leaves the table empty. Tables share no pages (Clone copies), so nothing
// else can see them; the owner must not use the table again.
func (t *Words) Release() {
	for _, l := range t.root {
		if l == nil {
			continue
		}
		for j, p := range l {
			if p != nil {
				freePages.Put(p)
			}
			l[j] = nil
		}
		freeLeaves.Put(l)
	}
	*t = Words{}
}

// Clone returns an independent copy of the current interval, copying only
// the pages written since the last Reset.
func (t *Words) Clone() Words {
	c := Words{gen: t.gen, live: make([]*wordPage, 0, len(t.live))}
	for _, p := range t.live {
		np := freePages.Get().(*wordPage)
		*np = *p
		c.insert(np)
		c.live = append(c.live, np)
	}
	return c
}

// Equal reports whether two tables hold the same state for every word. It
// is blind to the generation counter: a page stale in its table reads as
// zeros, so two tables reset a different number of times compare by
// content alone.
func (t *Words) Equal(o *Words) bool { return t.within(o) && o.within(t) }

// within reports whether every page live in t matches o word for word.
func (t *Words) within(o *Words) bool {
	for _, p := range t.live {
		if q := o.page(p.key << pageBits); q != nil && q.gen == o.gen {
			if p.w != q.w {
				return false
			}
		} else if p.w != ([wordsPerPage]uint8{}) {
			return false
		}
	}
	return true
}

// Len returns the number of words with a non-zero state.
func (t *Words) Len() int {
	n := 0
	for _, p := range t.live {
		for _, w := range p.w {
			if w != 0 {
				n++
			}
		}
	}
	return n
}
