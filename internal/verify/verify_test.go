package verify

import (
	"errors"
	"strings"
	"testing"

	"nacho/internal/mem"
)

func newVerifier(cfg Config) *Verifier {
	initial := mem.NewSpace()
	initial.Write(0x100, 4, 0xCAFE)
	return New(initial, cfg)
}

func TestShadowMatchesInitialImage(t *testing.T) {
	v := newVerifier(Config{})
	v.CPURead(0x100, 4, 0xCAFE)
	if err := v.Err(); err != nil {
		t.Errorf("correct read flagged: %v", err)
	}
}

func TestShadowMismatchDetected(t *testing.T) {
	v := newVerifier(Config{})
	v.CPUWrite(0x200, 4, 7)
	v.CPURead(0x200, 4, 8)
	err := v.Err()
	if err == nil {
		t.Fatal("mismatch not detected")
	}
	if !strings.Contains(err.Error(), "shadow-mismatch") {
		t.Errorf("error = %v", err)
	}
	var viol Violation
	if !errors.As(err, &viol) || viol.Got != 8 || viol.Want != 7 {
		t.Errorf("violation details: %+v", viol)
	}
}

func TestSubWordShadow(t *testing.T) {
	v := newVerifier(Config{})
	v.CPUWrite(0x300, 4, 0xAABBCCDD)
	v.CPUWrite(0x301, 1, 0x11)
	v.CPURead(0x300, 4, 0xAABB11DD)
	v.CPURead(0x302, 2, 0xAABB)
	if err := v.Err(); err != nil {
		t.Error(err)
	}
}

func TestWARDetection(t *testing.T) {
	v := newVerifier(Config{Rollback: true})
	v.CPURead(0x400, 4, 0)
	v.NVMWriteBack(0x400, 4)
	if err := v.Err(); err == nil || !strings.Contains(err.Error(), "war-violation") {
		t.Errorf("WAR not detected: %v", err)
	}
	// Write-dominated write-back is fine.
	v2 := newVerifier(Config{Rollback: true})
	v2.CPUWrite(0x500, 4, 1)
	v2.NVMWriteBack(0x500, 4)
	if err := v2.Err(); err != nil {
		t.Errorf("safe write-back flagged: %v", err)
	}
	// Without rollback semantics nothing is recorded.
	v3 := newVerifier(Config{Rollback: false})
	v3.CPURead(0x400, 4, 0)
	v3.NVMWriteBack(0x400, 4)
	if err := v3.Err(); err != nil {
		t.Errorf("disabled WAR check flagged: %v", err)
	}
}

func TestIntervalBoundaryResets(t *testing.T) {
	v := newVerifier(Config{Rollback: true})
	v.CPURead(0x600, 4, 0)
	v.IntervalBoundary()
	v.NVMWriteBack(0x600, 4) // read was in the previous interval
	if err := v.Err(); err != nil {
		t.Errorf("cross-interval write-back flagged: %v", err)
	}
}

func TestRollbackOnFailure(t *testing.T) {
	v := newVerifier(Config{Rollback: true})
	v.CPUWrite(0x100, 4, 1) // overwrite the initial 0xCAFE
	v.PowerFailure()        // rollback to the last boundary (the start)
	v.CPURead(0x100, 4, 0xCAFE)
	if err := v.Err(); err != nil {
		t.Errorf("rollback failed: %v", err)
	}
	// After a boundary the rollback point moves.
	v.CPUWrite(0x100, 4, 2)
	v.IntervalBoundary()
	v.CPUWrite(0x100, 4, 3)
	v.PowerFailure()
	v.CPURead(0x100, 4, 2)
	if err := v.Err(); err != nil {
		t.Errorf("post-boundary rollback failed: %v", err)
	}
}

func TestNoRollbackForJITSystems(t *testing.T) {
	v := newVerifier(Config{Rollback: false})
	v.CPUWrite(0x100, 4, 1)
	v.PowerFailure() // resume-in-place semantics: shadow keeps the write
	v.CPURead(0x100, 4, 1)
	if err := v.Err(); err != nil {
		t.Errorf("JIT shadow semantics broken: %v", err)
	}
}

func TestJournalKeepsFirstPreimage(t *testing.T) {
	v := newVerifier(Config{Rollback: true})
	v.CPUWrite(0x100, 4, 1)
	v.CPUWrite(0x100, 4, 2)
	v.CPUWrite(0x100, 4, 3)
	v.PowerFailure()
	v.CPURead(0x100, 4, 0xCAFE) // rolls all the way back to the pre-image
	if err := v.Err(); err != nil {
		t.Error(err)
	}
}

// TestJournalGenerationWrap drives the journal's generation stamp through
// its wrap: a word journalled before the wrap, and not written again until
// after it, must be journalled afresh, or the rollback would skip it.
func TestJournalGenerationWrap(t *testing.T) {
	for _, boundaries := range []int{1<<16 - 1, 1 << 16, 1<<16 + 1, 3 << 16} {
		v := newVerifier(Config{Rollback: true})
		v.CPUWrite(0x100, 4, 1)
		for i := 0; i < boundaries; i++ {
			v.IntervalBoundary()
		}
		v.CPUWrite(0x100, 4, 2)
		v.PowerFailure()
		v.CPURead(0x100, 4, 1)
		if err := v.Err(); err != nil {
			t.Errorf("rollback after %d boundaries: %v", boundaries, err)
		}
	}
}

// TestMaxViolationsCap: the verifier keeps no list of violations, however
// many there are; Err counts every one and wraps the first.
func TestMaxViolationsCap(t *testing.T) {
	v := New(mem.NewSpace(), Config{})
	for i := uint32(0); i < 74; i++ {
		v.CPURead(i*4, 4, 999) // shadow has zeros
	}
	if err := v.Err(); err == nil || !strings.HasPrefix(err.Error(), "verify: 74 violation(s), first: ") {
		t.Errorf("Err should count every violation: %v", err)
	}
	want := Violation{Kind: ShadowMismatch, Addr: 0, Size: 4, Got: 999, Want: 0}
	var first Violation
	if !errors.As(v.Err(), &first) || first != want {
		t.Errorf("Err wraps %+v, want the first violation %+v", first, want)
	}
}

func TestNilVerifierSafe(t *testing.T) {
	var v *Verifier
	v.CPURead(0, 4, 0)
	v.CPUWrite(0, 4, 0)
	v.NVMWriteBack(0, 4)
	v.IntervalBoundary()
	v.PowerFailure()
	if v.Err() != nil {
		t.Error("nil verifier misbehaved")
	}
}

func TestViolationStrings(t *testing.T) {
	s := Violation{Kind: ShadowMismatch, Addr: 0x10, Size: 4, Got: 1, Want: 2}.Error()
	if !strings.Contains(s, "shadow-mismatch") || !strings.Contains(s, "0x00000010") {
		t.Errorf("string: %s", s)
	}
	w := Violation{Kind: WARViolation, Addr: 0x20, Size: 1}.Error()
	if !strings.Contains(w, "war-violation") {
		t.Errorf("string: %s", w)
	}
	if Kind(42).String() != "unknown" {
		t.Error("unknown kind string")
	}
}
