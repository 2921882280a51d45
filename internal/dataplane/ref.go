package dataplane

import "repro/internal/packet"

// Ref is the single-threaded reference implementation of the engine's
// semantics: one plain map, the same Entry type, the core.Rule kernel the
// engine's RawRule is compiled from, zero concurrency. The differential
// oracle replays identical frame+control sequences through a Ref and
// through the concurrent Engine and demands identical bytes — Ref is
// deliberately too simple to be wrong, which is what makes the
// comparison evidence.
type Ref struct {
	entries                  map[packet.FiveTuple]*Entry
	disableOptionTranslation bool

	Processed uint64
	Rewritten uint64
}

// NewRef builds an empty reference table with the engine config's
// translation setting.
func NewRef(cfg Config) *Ref {
	return &Ref{
		entries:                  map[packet.FiveTuple]*Entry{},
		disableOptionTranslation: cfg.DisableOptionTranslation,
	}
}

// Install publishes e as the rewrite for ft.
func (r *Ref) Install(ft packet.FiveTuple, e *Entry) { r.entries[ft] = e }

// Remove deletes the entry for ft, reporting whether one existed.
func (r *Ref) Remove(ft packet.FiveTuple) bool {
	if _, ok := r.entries[ft]; !ok {
		return false
	}
	delete(r.entries, ft)
	return true
}

// Len returns the installed entry count.
func (r *Ref) Len() int { return len(r.entries) }

// Process rewrites p in place exactly as Engine.ProcessRawInline
// rewrites p's serialized frame.
func (r *Ref) Process(p *packet.Packet) Verdict {
	r.Processed++
	e := r.entries[p.Tuple]
	if e == nil {
		return Pass
	}
	if e.Dir == Egress {
		e.ApplyEgress(p, !r.disableOptionTranslation)
	} else {
		e.ApplyIngress(p, !r.disableOptionTranslation)
	}
	r.Rewritten++
	return Rewritten
}
