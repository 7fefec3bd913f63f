package mem

import "testing"

// benchImage stands in for a program image: 8 KiB of text, 16 KiB of data
// and one checkpoint page, loaded once and never written again.
func benchImage() *Space {
	s := NewSpace()
	s.LoadBytes(0x1_0000, make([]byte, 8<<10))
	data := make([]byte, 16<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	s.LoadBytes(0x2_0000, data)
	s.Write(0xE_0000, 4, 1)
	return s
}

func BenchmarkWordReadWrite(b *testing.B) {
	s := benchImage()
	s.Write(0x2_0000, 4, 0) // own the page
	for i := 0; i < b.N; i++ {
		a := 0x2_0000 + uint32(i)&0xFFC
		s.Write(a, 4, s.Read(a, 4)+1)
	}
}

// BenchmarkForkFrozenImage forks a frozen image and writes one data word
// and one stack word, the first writes every run makes.
func BenchmarkForkFrozenImage(b *testing.B) {
	img := benchImage()
	for i := 0; i < b.N; i++ {
		f := img.Fork()
		f.Write(0x2_0100, 4, uint32(i))
		f.Write(0x9_FFF0, 4, uint32(i))
	}
}

// BenchmarkFirstDiff compares a 16 KiB data segment page by page against
// golden bytes that match, the common case of a final-state check.
func BenchmarkFirstDiff(b *testing.B) {
	s := benchImage().Fork()
	want := make([]byte, 16<<10)
	s.ReadBytes(0x2_0000, want)
	for i := 0; i < b.N; i++ {
		if s.FirstDiff(0x2_0000, want) >= 0 {
			b.Fatal("golden bytes differ")
		}
	}
}
