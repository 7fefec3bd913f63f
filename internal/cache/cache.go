// Package cache implements the set-associative write-back data cache
// structure shared by NACHO and the cache-based baselines.
//
// Following the paper's implementation (Section 5.3) a cache line holds four
// bytes of data, uses an LRU replacement policy, and carries — besides the
// standard valid and dirty bits — the two bits NACHO adds: read-dominated
// (RD) and possible-WAR (PW). Size and associativity are configurable; the
// index function is the address hash the paper refers to ("the cache stores
// data based on a hash of the memory address").
//
// Storage is a single flat backing array indexed by (set<<waysShift)+way,
// with a parallel array of packed lookup keys (tag<<1 | valid) so the hit
// scan — the overwhelmingly common operation on the execution fast path — is
// one tight, allocation-free loop of word compares over adjacent memory.
//
// Storage is recycled. Release puts a cache's storage (a Block) on a free
// list kept per line count, and New and Clone draw from it: New clears what
// it takes, Clone overwrites it whole. The snapshot explorer clones a cache
// for every crash instant it forks, so the copy is the cost, not the
// allocation.
//
// A cache whose LRU stamp is zero — nothing installed or touched since New or
// InvalidateAll — has every line and key zero, since only Install and Touch
// raise the stamp. Equal and InvalidateAll use it to skip the scan of an empty
// cache, the state every power failure leaves behind.
package cache

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// LineSize is the cache line size in bytes (fixed at four, paper Section 5.3).
const LineSize = 4

// Line is one cache line: a 4-byte data word plus metadata bits.
type Line struct {
	Valid bool
	Dirty bool
	RD    bool   // read-dominated (NACHO bit, paper Section 4.2.1)
	PW    bool   // possible-WAR  (NACHO bit, paper Section 4.2.2)
	Tag   uint32 // full line address >> 2; with 4-byte lines the tag identifies the word
	Data  uint32
	lru   uint64 // last-touch stamp; larger is more recent
}

// Addr returns the byte address of the line's word.
func (l *Line) Addr() uint32 { return l.Tag << 2 }

// key packs a line's lookup identity into one word: tag<<1 | valid. The tag
// is addr>>2 (at most 30 significant bits), so the packed form fits 31 bits
// and a valid line's key is always odd — a zero key can never match.
func key(addr uint32) uint32 { return (addr>>2)<<1 | 1 }

// Block is a run of cache lines with their packed lookup keys, the unit the
// free list recycles. A Cache keeps its storage in one; a controller that
// keeps cache.Line storage outside a Cache (the PROWL baseline) takes one for
// its lines and leaves the keys unused.
type Block struct {
	Lines []Line
	keys  []uint32
}

// free holds released blocks, one list per line count: free[k] holds blocks
// of 1<<k lines. A pooled block keeps its stale contents.
var free [bits.UintSize]sync.Pool

// takeBlock returns a block of n lines with unspecified contents, from the
// free list when it holds one. n must be a power of two, as every geometry
// New and the PROWL baseline accept makes it.
func takeBlock(n int) *Block {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("cache: block of %d lines is not a power of two", n))
	}
	if b, ok := free[bits.TrailingZeros(uint(n))].Get().(*Block); ok {
		return b
	}
	return &Block{Lines: make([]Line, n), keys: make([]uint32, n)}
}

// NewBlock returns a block of n zeroed lines (n a power of two), recycled
// when the free list holds one of that size.
func NewBlock(n int) *Block {
	b := takeBlock(n)
	clear(b.Lines)
	clear(b.keys)
	return b
}

// Clone returns a copy of the block, drawn from the free list and
// overwritten whole.
func (b *Block) Clone() *Block {
	n := takeBlock(len(b.Lines))
	copy(n.Lines, b.Lines)
	copy(n.keys, b.keys)
	return n
}

// Release puts the block on the free list. Its owner must not use the block,
// or any slice of its lines, again.
func (b *Block) Release() {
	free[bits.TrailingZeros(uint(len(b.Lines)))].Put(b)
}

// Cache is a set-associative cache of 4-byte lines.
//
// Invariant: keys[i] mirrors (lines[i].Tag, lines[i].Valid) at all times.
// Valid and Tag are mutated only by Install and InvalidateAll, which maintain
// the mirror; callers that reach lines through Set() mutate data and the
// Dirty/RD/PW metadata bits only.
//
// Invariant: stamp == 0 implies every line and key is zero (see the package
// doc). Callers mutate only lines that Probe found (so installed) or that
// they Install before they next read the cache.
type Cache struct {
	lines     []Line   // numSets << waysShift entries; padding ways stay zero
	keys      []uint32 // packed tag|valid mirror of lines, same indexing
	blk       *Block   // the storage lines and keys belong to
	ways      int
	numSets   int
	waysShift uint
	stamp     uint64
}

// New creates a cache of sizeBytes capacity and the given associativity.
// sizeBytes must be a positive multiple of ways*LineSize and the resulting
// set count must be a power of two (hardware-indexable).
func New(sizeBytes, ways int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 {
		return nil, fmt.Errorf("cache: invalid geometry %dB/%d-way", sizeBytes, ways)
	}
	lines := sizeBytes / LineSize
	if lines*LineSize != sizeBytes || lines%ways != 0 {
		return nil, fmt.Errorf("cache: size %dB not divisible into %d-way sets of %dB lines", sizeBytes, ways, LineSize)
	}
	numSets := lines / ways
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d is not a power of two", numSets)
	}
	var shift uint
	for 1<<shift < ways {
		shift++
	}
	c := &Cache{ways: ways, numSets: numSets, waysShift: shift}
	c.setBlock(NewBlock(numSets << shift))
	return c, nil
}

// setBlock makes b the cache's storage.
func (c *Cache) setBlock(b *Block) {
	c.blk, c.lines, c.keys = b, b.Lines, b.keys
}

// MustNew is New for statically valid geometries; it panics on error.
func MustNew(sizeBytes, ways int) *Cache {
	c, err := New(sizeBytes, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// Clone returns an independent deep copy of the cache: every line and the
// LRU stamp, in storage drawn from the free list.
func (c *Cache) Clone() *Cache {
	n := &Cache{ways: c.ways, numSets: c.numSets, waysShift: c.waysShift, stamp: c.stamp}
	n.setBlock(c.blk.Clone())
	return n
}

// Release puts the cache's storage on the free list once its owner is done
// with it. The cache is left without storage, so any later use panics rather
// than read a line another cache now holds.
func (c *Cache) Release() {
	c.blk.Release()
	c.blk, c.lines, c.keys = nil, nil, nil
}

// Equal reports whether two caches of one geometry hold the same lines —
// data, metadata bits and last-touch stamps — and the same LRU stamp. Two
// empty caches (stamp 0) are equal without a scan.
func (c *Cache) Equal(o *Cache) bool {
	return c.stamp == o.stamp && (c.stamp == 0 || slices.Equal(c.lines, o.lines))
}

// SizeBytes returns the data capacity.
func (c *Cache) SizeBytes() int { return c.numSets * c.ways * LineSize }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// NumLines returns the total line count (the checkpoint capacity bound).
func (c *Cache) NumLines() int { return c.numSets * c.ways }

// SetIndex is the address hash: the line address modulo the set count.
func (c *Cache) SetIndex(addr uint32) int {
	return int(addr>>2) & (c.numSets - 1)
}

// Set returns the lines of the set addr maps to. The returned slice aliases
// cache storage; callers mutate lines through it (data and Dirty/RD/PW only —
// see the Cache invariant).
func (c *Cache) Set(addr uint32) []Line {
	base := c.SetIndex(addr) << c.waysShift
	return c.lines[base : base+c.ways : base+c.ways]
}

// Probe looks addr up and returns its line on a hit, or nil on a miss.
// It does not touch LRU state; callers decide when an access counts.
func (c *Cache) Probe(addr uint32) *Line {
	base := c.SetIndex(addr) << c.waysShift
	k := key(addr)
	// One bounds check for the whole scan; the per-way compares then run
	// check-free.
	ks := c.keys[base : base+c.ways]
	for w := range ks {
		if ks[w] == k {
			return &c.lines[base+w]
		}
	}
	return nil
}

// Victim selects the replacement victim in addr's set: an invalid line if one
// exists, otherwise the least recently used line.
func (c *Cache) Victim(addr uint32) *Line {
	base := c.SetIndex(addr) << c.waysShift
	victim := -1
	for i := base; i < base+c.ways; i++ {
		if c.keys[i]&1 == 0 {
			return &c.lines[i]
		}
		if victim < 0 || c.lines[i].lru < c.lines[victim].lru {
			victim = i
		}
	}
	return &c.lines[victim]
}

// Touch marks the line as most recently used.
func (c *Cache) Touch(l *Line) {
	c.stamp++
	l.lru = c.stamp
}

// Install points the line at addr's word. Metadata bits are left for the
// controller to manage; the line becomes valid and most recently used.
// l must belong to addr's set (it came from Victim or Set for this address).
func (c *Cache) Install(l *Line, addr uint32) {
	l.Valid = true
	l.Tag = addr >> 2
	base := c.SetIndex(addr) << c.waysShift
	mirrored := false
	for i := base; i < base+c.ways; i++ {
		if &c.lines[i] == l {
			c.keys[i] = key(addr)
			mirrored = true
			break
		}
	}
	if !mirrored {
		panic(fmt.Sprintf("cache: Install of line outside set for addr %#x", addr))
	}
	c.Touch(l)
}

// ForEach visits every line (checkpoint flush walks).
func (c *Cache) ForEach(f func(*Line)) {
	for s := 0; s < c.numSets; s++ {
		base := s << c.waysShift
		for w := 0; w < c.ways; w++ {
			f(&c.lines[base+w])
		}
	}
}

// InvalidateAll destroys all volatile contents (power failure). An empty
// cache (stamp 0) has nothing to clear.
func (c *Cache) InvalidateAll() {
	if c.stamp == 0 {
		return
	}
	clear(c.lines)
	clear(c.keys)
	c.stamp = 0
}

// ReadData returns size bytes at addr from the line's word, little-endian.
// addr must fall inside the line.
func (l *Line) ReadData(addr uint32, size int) uint32 {
	shift := (addr & 3) * 8
	v := l.Data >> shift
	switch size {
	case 1:
		return v & 0xFF
	case 2:
		return v & 0xFFFF
	default:
		return v
	}
}

// WriteData merges size bytes of val into the line's word at addr.
func (l *Line) WriteData(addr uint32, size int, val uint32) {
	shift := (addr & 3) * 8
	switch size {
	case 1:
		l.Data = l.Data&^(0xFF<<shift) | (val&0xFF)<<shift
	case 2:
		l.Data = l.Data&^(0xFFFF<<shift) | (val&0xFFFF)<<shift
	default:
		l.Data = val
	}
}

// LRU returns the line's last-touch stamp (exposed for controllers that keep
// cache.Line storage outside a Cache, like the PROWL baseline).
func (l *Line) LRU() uint64 { return l.lru }

// SetLRU sets the line's last-touch stamp.
func (l *Line) SetLRU(v uint64) { l.lru = v }
