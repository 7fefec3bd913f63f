// Package store is the persistent, content-addressed run-result store: a
// digest over the canonical serialization of a run's identity (Key), mapping
// to an on-disk record of the run's outcome. It is what lets the evaluation
// matrix survive process restarts, be shared between processes (entries are
// written by atomic rename), and regenerate the whole paper evaluation from a
// warm store without executing a single simulation.
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
const KeyVersion = 4

// Key is the complete, serializable identity of one run: everything that can
// influence the simulation result, and nothing that cannot. The harness
// builds it once per run request; it keys the in-process run cache, its
// digest names the run's store object, and it fills the run ledger's identity
// columns. The program is identified by the content hash of its assembled
// image, not only by name, so two builds of a repo with different benchmark
// source never alias in a shared store. The key names no engine: the engines
// are result-invariant (the harness's equivalence suite), so a result stored
// under one serves the other.
type Key struct {
	Program   string `json:"program"`    // benchmark/program name (diagnostic; ImageHash is authoritative)
	ImageHash string `json:"image_hash"` // program.Image.Hash
	System    string `json:"system"`

	CacheSize int    `json:"cache"`
	Ways      int    `json:"ways"`
	Schedule  string `json:"schedule"` // power.Schedule.Key(); "none" when always-on

	ForcedCheckpointPeriod uint64 `json:"forced_period"`
	MaxInstructions        uint64 `json:"max_instructions"`
	MaxCycles              uint64 `json:"max_cycles"`
	FinalFlush             bool   `json:"final_flush"`
	Verify                 bool   `json:"verify"`
	CheckGolden            bool   `json:"check_golden"`

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
	sint("cache", k.CacheSize)
	sint("ways", k.Ways)
	str("schedule", k.Schedule)
	num("forced_period", k.ForcedCheckpointPeriod)
	num("max_instructions", k.MaxInstructions)
	num("max_cycles", k.MaxCycles)
	boolean("final_flush", k.FinalFlush)
	boolean("verify", k.Verify)
	boolean("check_golden", k.CheckGolden)
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
	// A digest is taken per store lookup and per ledger record; the
	// canonical form fits this stack buffer (a longer one spills to the
	// heap), so only the hex encoding allocates.
	var buf [512]byte
	sum := sha256.Sum256(k.appendCanonical(buf[:0]))
	return hex.EncodeToString(sum[:])
}
