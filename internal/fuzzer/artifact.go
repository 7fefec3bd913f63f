package fuzzer

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"nacho/internal/asm"
	"nacho/internal/emu"
	"nacho/internal/mem"
	"nacho/internal/program"
	"nacho/internal/systems"
)

// Artifact is the on-disk, replayable form of a finding. The encoded text
// and data are authoritative — replay executes exactly these bytes, so an
// artifact keeps reproducing even if the generator's rendering conventions
// change. The op tree and listing ride along for human consumption and
// for re-minimization.
type Artifact struct {
	Version      int      `json:"version"`
	Seed         int64    `json:"seed"`
	System       string   `json:"system"`
	Kind         string   `json:"kind"`
	Detail       string   `json:"detail"`
	Schedule     []uint64 `json:"schedule,omitempty"`
	CacheSize    int      `json:"cache_size"`
	Ways         int      `json:"ways"`
	Instructions int      `json:"instructions"`
	Params       Params   `json:"params"`
	Ops          []Op     `json:"ops,omitempty"`
	Text         string   `json:"text"` // hex-encoded instruction words (authoritative)
	Data         string   `json:"data"` // hex-encoded initial data buffer
	Asm          []string `json:"asm,omitempty"`
}

// ArtifactVersion is written into new artifacts.
const ArtifactVersion = 1

// NewArtifact renders a finding into its replayable form.
func NewArtifact(f Finding, cfg Config) (*Artifact, error) {
	if f.Prog == nil {
		return nil, fmt.Errorf("fuzzer: finding has no program to render")
	}
	cfg = cfg.normalized()
	img, err := f.Prog.Render()
	if err != nil {
		return nil, err
	}
	var text, data []byte
	for _, seg := range img.Segments {
		if seg.Addr == mem.TextBase {
			text = seg.Data
		} else if seg.Addr == mem.DataBase {
			data = seg.Data
		}
	}
	listing, err := f.Prog.Listing()
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Version:      ArtifactVersion,
		Seed:         f.Seed,
		System:       string(f.System),
		Kind:         string(f.Kind),
		Detail:       f.Detail,
		Schedule:     append([]uint64(nil), f.Schedule...),
		CacheSize:    cfg.CacheSize,
		Ways:         cfg.Ways,
		Instructions: img.Text.Len(),
		Params:       f.Prog.Params,
		Ops:          f.Prog.Ops,
		Text:         hex.EncodeToString(text),
		Data:         hex.EncodeToString(data),
		Asm:          listing,
	}, nil
}

// Image reassembles the artifact's executable image from the authoritative
// text and data bytes.
func (a *Artifact) Image() (*program.Image, error) {
	text, err := hex.DecodeString(a.Text)
	if err != nil {
		return nil, fmt.Errorf("fuzzer: artifact text: %w", err)
	}
	data, err := hex.DecodeString(a.Data)
	if err != nil {
		return nil, fmt.Errorf("fuzzer: artifact data: %w", err)
	}
	if len(text) == 0 || len(text)%4 != 0 {
		return nil, fmt.Errorf("fuzzer: artifact text length %d is not a positive word multiple", len(text))
	}
	decoded, err := emu.DecodeText(text)
	if err != nil {
		return nil, fmt.Errorf("fuzzer: artifact text: %w", err)
	}
	return &program.Image{
		Program:  &program.Program{Name: fmt.Sprintf("artifact-seed%d", a.Seed), Description: "fuzz finding replay"},
		Segments: []asm.Segment{{Addr: mem.TextBase, Data: text}, {Addr: mem.DataBase, Data: data}},
		Text:     decoded,
		Entry:    mem.TextBase,
	}, nil
}

// Replay re-executes the artifact: golden run on Volatile, then the
// recorded system under the recorded schedule. It returns the reproduced
// finding, or nil if the artifact no longer diverges (i.e. the bug it
// captured is fixed). Replay is fully deterministic.
func (a *Artifact) Replay() (*Finding, error) {
	img, err := a.Image()
	if err != nil {
		return nil, err
	}
	cfg := Config{CacheSize: a.CacheSize, Ways: a.Ways}.normalized()
	g, err := golden(img, cfg)
	if err != nil {
		return nil, fmt.Errorf("fuzzer: artifact golden run: %w", err)
	}
	kind := systems.Kind(a.System)
	sched := append([]uint64(nil), a.Schedule...)
	fc, _ := differential(img, g, kind, cfg, only(sched))
	if fc == nil {
		return nil, nil
	}
	return &Finding{
		Seed:         a.Seed,
		System:       kind,
		Kind:         fc.kind,
		Detail:       fc.detail,
		Schedule:     sched,
		Minimized:    true,
		Instructions: a.Instructions,
	}, nil
}

// Filename is the artifact's canonical file name.
func (a *Artifact) Filename() string {
	return fmt.Sprintf("%s-%s-seed%d.json", a.Kind, a.System, a.Seed)
}

// Write stores the artifact under dir (created if needed) and returns the
// full path.
func (a *Artifact) Write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, a.Filename())
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	artifactsTotal.Add(1)
	return path, nil
}

// LoadArtifact reads an artifact written by Write.
func LoadArtifact(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("fuzzer: %s: %w", path, err)
	}
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("fuzzer: %s: unsupported artifact version %d", path, a.Version)
	}
	return &a, nil
}

// DecodeFuzzInput derives a generated program and a raw failure-schedule
// byte string from fuzz-engine bytes. The first 8 bytes seed the generator,
// the next two bound the op count and buffer size (so the engine can steer
// the program shape without round-tripping through the seed), and the rest
// become failure instants via power.FromBytes. Inputs shorter than 8 bytes
// are padded with zeros.
func DecodeFuzzInput(b []byte) (*Prog, []byte) {
	var buf [8]byte
	copy(buf[:], b)
	seed := int64(binary.LittleEndian.Uint64(buf[:]))
	rest := b[min(len(b), 8):]
	p := Params{Ops: 12, BufWords: 140, MaxLoop: 4, MaxDepth: 2}
	if len(rest) > 0 {
		p.Ops = 1 + int(rest[0])%24
		rest = rest[1:]
	}
	if len(rest) > 0 {
		p.BufWords = 16 + int(rest[0])%240
		rest = rest[1:]
	}
	rng := newSeedRNG(seed)
	return GenerateWith(seed, p, rng), rest
}
