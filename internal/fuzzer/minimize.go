package fuzzer

import "nacho/internal/systems"

// The minimizer is a greedy delta-debugger over the structured program
// (the op tree, not raw instructions — every candidate renders to a
// well-formed program) and the failure schedule. A candidate is accepted
// when it still produces a finding of the same kind on the same system.
// The search is deterministic: a fixed pass order under a fixed candidate
// budget, so minimizing the same finding twice yields the same artifact.

// minimizeBudget caps oracle invocations per Minimize call. Each candidate
// costs up to three runs (its golden run, a failure-free run to re-measure
// the budget and the scheduled run), so this bounds minimization at ~1200
// simulations.
const minimizeBudget = 400

type minimizer struct {
	system  systems.Kind
	want    FindingKind
	cfg     Config
	seed    int64
	params  Params
	remain  int
	checked uint64
}

// reproduces reports whether the candidate (ops, sched) still triggers a
// finding of the wanted kind. Candidates that fail to render or to run on
// the Volatile baseline are rejected — minimization must preserve
// well-formedness, not trade one failure for another. A candidate that
// diverges with no failures at all counts when it is the same bug (schedule
// minimization will then drop to nil).
func (m *minimizer) reproduces(ops []Op, sched []uint64) bool {
	if m.remain <= 0 {
		return false
	}
	m.remain--
	m.checked++
	img, g, err := prepare(&Prog{Seed: m.seed, Params: m.params, Ops: ops}, m.cfg)
	if err != nil {
		return false
	}
	fc, _ := differential(img, g, m.system, m.cfg, only(sched))
	return fc != nil && fc.kind == m.want
}

func cloneOps(ops []Op) []Op {
	out := make([]Op, len(ops))
	copy(out, ops)
	for i := range out {
		if out[i].Body != nil {
			out[i].Body = cloneOps(out[i].Body)
		}
	}
	return out
}

// without returns ops with [i, i+n) removed.
func without(ops []Op, i, n int) []Op {
	out := make([]Op, 0, len(ops)-n)
	out = append(out, ops[:i]...)
	return append(out, ops[i+n:]...)
}

// minimizeList ddmin-shrinks one op slice: first remove chunks of halving
// size, then per-element structural simplifications (unwrap loop/call
// bodies, shrink bodies recursively, collapse loop counts to 1). test must
// treat its argument as immutable.
func (m *minimizer) minimizeList(ops []Op, test func([]Op) bool) []Op {
	for chunk := (len(ops) + 1) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(ops); {
			cand := without(ops, i, chunk)
			if test(cand) {
				ops = cand
			} else {
				i += chunk
			}
		}
	}
	for i := 0; i < len(ops); i++ {
		if len(ops[i].Body) == 0 {
			continue
		}
		// Unwrap: replace the loop/call with its body inline.
		cand := make([]Op, 0, len(ops)+len(ops[i].Body)-1)
		cand = append(cand, ops[:i]...)
		cand = append(cand, ops[i].Body...)
		cand = append(cand, ops[i+1:]...)
		if test(cand) {
			ops = cand
			i--
			continue
		}
		if ops[i].Kind == OpLoop && ops[i].V > 1 {
			c := cloneOps(ops)
			c[i].V = 1
			if test(c) {
				ops = c
			}
		}
		idx := i
		body := m.minimizeList(cloneOps(ops[idx].Body), func(b []Op) bool {
			c := cloneOps(ops)
			c[idx].Body = b
			return test(c)
		})
		c := cloneOps(ops)
		c[idx].Body = body
		ops = c
	}
	return ops
}

// minimizeSchedule drops failure instants while the finding reproduces,
// trying the empty schedule first (many findings — WAR violations above
// all — reproduce failure-free).
func (m *minimizer) minimizeSchedule(ops []Op, sched []uint64) []uint64 {
	if len(sched) == 0 {
		return nil
	}
	if m.reproduces(ops, nil) {
		return nil
	}
	for i := 0; i < len(sched); {
		cand := make([]uint64, 0, len(sched)-1)
		cand = append(cand, sched[:i]...)
		cand = append(cand, sched[i+1:]...)
		if len(cand) > 0 && m.reproduces(ops, cand) {
			sched = cand
		} else {
			i++
		}
	}
	return sched
}

// Minimize delta-debugs a finding's program and failure schedule down to a
// smaller reproducer of the same kind on the same system. The result has
// Minimized set and Instructions filled with the rendered text length; the
// detail is re-derived from the minimized reproduction. Findings without a
// program (raw artifact replays) are returned unchanged.
func Minimize(f Finding, cfg Config) Finding {
	if f.Prog == nil {
		return f
	}
	cfg = cfg.normalized()
	m := &minimizer{
		system: f.System,
		want:   f.Kind,
		cfg:    cfg,
		seed:   f.Prog.Seed,
		params: f.Prog.Params,
		remain: minimizeBudget,
	}

	ops := cloneOps(f.Prog.Ops)
	sched := append([]uint64(nil), f.Schedule...)
	if !m.reproduces(ops, sched) {
		// Not deterministic under this oracle configuration (or budget
		// exhausted immediately); keep the original finding.
		return f
	}
	ops = m.minimizeList(ops, func(c []Op) bool { return m.reproduces(c, sched) })
	sched = m.minimizeSchedule(ops, sched)
	ops = m.minimizeList(ops, func(c []Op) bool { return m.reproduces(c, sched) })

	out := f
	out.Prog = &Prog{Seed: f.Prog.Seed, Params: f.Prog.Params, Ops: ops}
	out.Schedule = sched
	out.Minimized = true
	minimizedTotal.Add(1)

	// Re-derive the detail (and instruction count) from the minimized
	// program so the artifact describes what it actually contains.
	if img, g, err := prepare(out.Prog, cfg); err == nil {
		out.Instructions = img.Text.Len()
		if fc, _ := differential(img, g, f.System, cfg, only(sched)); fc != nil {
			out.Kind = fc.kind
			out.Detail = fc.detail
		}
	}
	return out
}
