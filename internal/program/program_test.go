package program

import (
	"strings"
	"testing"

	"nacho/internal/asm"
	"nacho/internal/emu"
	"nacho/internal/mem"
)

func TestRegistryComplete(t *testing.T) {
	// The paper's nine benchmarks (Section 6.1.1).
	want := []string{"adpcm", "aes", "coremark", "crc", "dijkstra", "picojpeg", "quicksort", "sha", "towers"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("benchmarks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("benchmark %d = %s, want %s", i, got[i], want[i])
		}
	}
	for _, p := range All() {
		if p.Description == "" {
			t.Errorf("%s has no description", p.Name)
		}
		if !strings.Contains(p.Source(), "_start") {
			t.Errorf("%s source lacks _start", p.Name)
		}
	}
}

// TestHeaderMMIOMatchesEmulator ties the benchmark header's MMIO symbols to
// the emulator's MMIO words: the header is a string literal, so nothing else
// notices when the two drift apart.
func TestHeaderMMIOMatchesEmulator(t *testing.T) {
	prog, err := asm.Assemble(header+"_start:\n ebreak\n", asm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint32{
		"MMIO_EXIT":   emu.ExitAddr,
		"MMIO_RESULT": emu.ResultAddr,
		"MMIO_PUTC":   emu.PutcharAddr,
	} {
		if got, ok := prog.Symbol(name); !ok || got != want {
			t.Errorf("header %s = %#x (defined: %v), want %#x", name, got, ok, want)
		}
	}
}

func TestByName(t *testing.T) {
	if p, ok := ByName("aes"); !ok || p.Name != "aes" {
		t.Error("ByName(aes) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
}

// crcImageHash pins crc's image hash. The hash is the program's part of every
// run identity, so a drift silently turns every stored crc cell into a miss.
// If this test fails, the crc image or the hash derivation changed: bump
// store.KeyVersion if the derivation did, then regenerate the constant.
const crcImageHash = "83b16671538a291d537bb112c9d9ecf95212ce0985966f7e0b2b2f4f3a9b6ce9"

func TestImageHashPinned(t *testing.T) {
	p, _ := ByName("crc")
	img, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := img.Hash(); got != crcImageHash {
		t.Fatalf("crc image hash = %s, want %s", got, crcImageHash)
	}
	other, _ := ByName("sha")
	shaImg, err := other.Build()
	if err != nil {
		t.Fatal(err)
	}
	if shaImg.Hash() == img.Hash() {
		t.Fatal("distinct images share a hash")
	}
}

func TestBuildCachesImages(t *testing.T) {
	p, _ := ByName("crc")
	a, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Build did not cache the image")
	}
	if a.Entry == 0 || a.Text.Len() == 0 || len(a.Segments) == 0 {
		t.Errorf("incomplete image: %+v", a)
	}
}

func TestReferencesDeterministic(t *testing.T) {
	for _, p := range All() {
		if p.Reference() != p.Reference() {
			t.Errorf("%s reference is nondeterministic", p.Name)
		}
	}
}

func TestXorShift32MatchesHeader(t *testing.T) {
	// The first few values of the PRNG from the documented seed; these pin
	// the generator so asm and Go can never drift silently.
	x := uint32(1)
	want := []uint32{270369, 67634689, 2647435461, 307599695}
	for i, w := range want {
		x = XorShift32(x)
		if x != w {
			t.Fatalf("step %d: %d, want %d", i, x, w)
		}
	}
}

func TestFromSource(t *testing.T) {
	img, err := FromSource("mini", "_start:\n ebreak\n")
	if err != nil {
		t.Fatal(err)
	}
	if img.Entry != mem.TextBase || img.Text.Len() != 1 {
		t.Errorf("image: entry=%#x text=%d", img.Entry, img.Text.Len())
	}
	if _, err := FromSource("bad", "_start:\n bogus\n"); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := FromSource("empty", ".data\nx: .word 1\n"); err == nil {
		t.Error("source without text accepted")
	}
}

func TestAesSboxKnownValues(t *testing.T) {
	box := aesSbox()
	// Canonical spot values from FIPS-197.
	cases := map[int]byte{0x00: 0x63, 0x01: 0x7c, 0x10: 0xca, 0x53: 0xed, 0xff: 0x16}
	for in, want := range cases {
		if box[in] != want {
			t.Errorf("sbox[%#x] = %#x, want %#x", in, box[in], want)
		}
	}
}

func TestJpegZigzagIsPermutation(t *testing.T) {
	zz := jpegZigzag()
	seen := map[uint32]bool{}
	for _, v := range zz {
		if v > 63 || seen[v] {
			t.Fatalf("zigzag invalid at %d", v)
		}
		seen[v] = true
	}
	// Canonical prefix of the JPEG zigzag order.
	want := []uint32{0, 1, 8, 16, 9, 2, 3, 10, 17, 24}
	for i, w := range want {
		if zz[i] != w {
			t.Errorf("zigzag[%d] = %d, want %d", i, zz[i], w)
		}
	}
}

func TestSegmentsWithinMemoryMap(t *testing.T) {
	for _, p := range All() {
		img, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range img.Segments {
			end := seg.Addr + uint32(len(seg.Data))
			if seg.Addr == mem.TextBase && end > mem.DataBase {
				t.Errorf("%s: text overflows into data (%#x)", p.Name, end)
			}
			if seg.Addr == mem.DataBase && end > mem.StackTop-0x10000 {
				t.Errorf("%s: data too close to the stack (%#x)", p.Name, end)
			}
		}
	}
}

func TestLongVariantsRegistered(t *testing.T) {
	long := LongNames()
	if len(long) != len(Names()) {
		t.Fatalf("long variants = %v, want one per standard benchmark", long)
	}
	for _, n := range long {
		p, ok := ByName(n)
		if !ok || !p.Long {
			t.Errorf("long variant %s not registered properly", n)
		}
	}
	// Standard lists must not leak long variants.
	for _, n := range Names() {
		if p, _ := ByName(n); p.Long {
			t.Errorf("Names() leaked long variant %s", n)
		}
	}
}
