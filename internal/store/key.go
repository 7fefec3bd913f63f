// Package store is the persistent, content-addressed run-result store: the
// structured in-process run-cache key promoted to a digest over the canonical
// serialization of a run's full identity, mapping to an on-disk record of the
// run's outcome. It is what lets the evaluation matrix survive process
// restarts, be shared between processes (entries are written by atomic
// rename), and regenerate the whole paper evaluation from a warm store
// without executing a single simulation.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// KeyVersion is the schema version folded into every digest. Bump it when
// the key serialization — or anything about the simulation that the key
// cannot see — changes meaning, so stale stores turn into clean misses
// instead of serving results computed under different semantics.
const KeyVersion = 1

// Key is the complete, serializable identity of one run: everything that can
// influence the simulation result. It mirrors the harness's in-process
// run-cache key with one strengthening — the program is identified by the
// content hash of its assembled image, not by name, so two builds of a repo
// with different benchmark source never alias in a shared store.
type Key struct {
	Program   string `json:"program"`    // benchmark/program name (diagnostic; ImageHash is authoritative)
	ImageHash string `json:"image_hash"` // hex SHA-256 of the canonical image serialization
	System    string `json:"system"`
	Engine    string `json:"engine"` // resolved engine (never "auto")

	CacheSize int    `json:"cache"`
	Ways      int    `json:"ways"`
	Schedule  string `json:"schedule"` // power.Schedule.Key(); "none" when always-on

	ForcedCheckpointPeriod uint64 `json:"forced_period"`
	ForcedCheckpointMargin uint64 `json:"forced_margin"`
	MaxInstructions        uint64 `json:"max_instructions"`
	MaxCycles              uint64 `json:"max_cycles"`
	FinalFlush             bool   `json:"final_flush"`
	Verify                 bool   `json:"verify"`
	CheckGolden            bool   `json:"check_golden"`

	// Cost model (mem.CostModel), flattened so the serialization is stable.
	ClockHz   uint64 `json:"clock_hz"`
	HitCycles uint64 `json:"hit_cycles"`
	NVMCycles uint64 `json:"nvm_cycles"`

	DirtyThreshold   int  `json:"dirty_threshold"`
	EnergyPrediction bool `json:"energy_prediction"`
}

// appendCanonical renders the key's canonical serialization: a single JSON
// object with fixed field order, fixed integer formatting, and every field
// present (zero values included). This is the digest pre-image, so its bytes
// are part of the on-disk format: any change must bump KeyVersion.
func (k *Key) appendCanonical(buf []byte) []byte {
	str := func(name, v string) {
		buf = append(buf, ',', '"')
		buf = append(buf, name...)
		buf = append(buf, `":`...)
		buf = strconv.AppendQuote(buf, v)
	}
	num := func(name string, v uint64) {
		buf = append(buf, ',', '"')
		buf = append(buf, name...)
		buf = append(buf, `":`...)
		buf = strconv.AppendUint(buf, v, 10)
	}
	sint := func(name string, v int) {
		buf = append(buf, ',', '"')
		buf = append(buf, name...)
		buf = append(buf, `":`...)
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	boolean := func(name string, v bool) {
		buf = append(buf, ',', '"')
		buf = append(buf, name...)
		buf = append(buf, `":`...)
		buf = strconv.AppendBool(buf, v)
	}
	buf = append(buf, `{"v":`...)
	buf = strconv.AppendInt(buf, KeyVersion, 10)
	str("program", k.Program)
	str("image_hash", k.ImageHash)
	str("system", k.System)
	str("engine", k.Engine)
	sint("cache", k.CacheSize)
	sint("ways", k.Ways)
	str("schedule", k.Schedule)
	num("forced_period", k.ForcedCheckpointPeriod)
	num("forced_margin", k.ForcedCheckpointMargin)
	num("max_instructions", k.MaxInstructions)
	num("max_cycles", k.MaxCycles)
	boolean("final_flush", k.FinalFlush)
	boolean("verify", k.Verify)
	boolean("check_golden", k.CheckGolden)
	num("clock_hz", k.ClockHz)
	num("hit_cycles", k.HitCycles)
	num("nvm_cycles", k.NVMCycles)
	sint("dirty_threshold", k.DirtyThreshold)
	boolean("energy_prediction", k.EnergyPrediction)
	return append(buf, '}')
}

// Canonical returns the canonical serialization the digest is computed over.
func (k *Key) Canonical() string { return string(k.appendCanonical(nil)) }

// Digest returns the content address of the key: the hex SHA-256 of its
// canonical serialization. Perturbing any result-affecting field changes the
// digest (pinned field by field in TestDigestSensitivity); identical
// identities collide by construction.
func (k *Key) Digest() string {
	sum := sha256.Sum256(k.appendCanonical(nil))
	return hex.EncodeToString(sum[:])
}

// HashImage digests an assembled program image: entry point, expected
// checksum, and every segment (address, then contents) in load order. It is
// the ImageHash component of a Key.
func HashImage(entry, expected uint32, segments []Segment) string {
	h := sha256.New()
	var w [8]byte
	word := func(v uint32) {
		w[0], w[1], w[2], w[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(w[:4])
	}
	word(entry)
	word(expected)
	for _, seg := range segments {
		word(seg.Addr)
		word(uint32(len(seg.Data)))
		h.Write(seg.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Segment is one loadable image segment, as HashImage consumes it. It
// mirrors asm.Segment without importing the assembler.
type Segment struct {
	Addr uint32
	Data []byte
}
