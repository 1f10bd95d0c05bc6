// Crash-image decision procedure: given each key's publishes in record
// order and the durability flags the engine derives from a machine result,
// decide durable linearizability against everything the tracker observed
// online.
package dlcheck

import (
	"errors"
	"fmt"
)

// Publish is one retired publish as the crash image lists it: the engine
// mutation-record index, the key it wrote, and whether it reached NVRAM.
type Publish struct {
	Rec     int
	Key     string
	Durable bool
}

// Image is the checker's view of one crash (or clean-drain) image: every
// retired publish, chained per key in record order. A key's publishes
// persist independently of each other, so a chain carries no
// happens-before edge; it fixes the order violations are reported in.
// Publishes the tracker observed but the image does not list never
// retired before the crash and are treated as lost.
type Image struct {
	Order []Publish
}

// The kinds of violation. Each Violation's Msg carries its kind as a
// tag after "dlcheck: ", so a log line or a test can tell them apart.
const (
	// ackedLost: an op acked durable is not recovered.
	ackedLost = "acked-lost"
	// hbOrder: a recovered publish happens-after another session's lost
	// one.
	hbOrder = "hb-order"
	// readContradiction: the recovered state contradicts a value a
	// client already observed (e.g. a deleted key resurrected, or a read
	// write lost while later effects survived).
	readContradiction = "read-contradiction"
	// unknownPublish: the image names a publish the tracker never
	// observed (a corrupt or mismatched image).
	unknownPublish = "unknown-publish"
)

// Violation is one durable-linearizability violation. Msg names its
// kind, the publish record at fault, the session involved and, where
// there is one, the lost record and the key it conflicts with.
type Violation struct {
	Msg string
}

// violation formats a Violation of kind.
func violation(kind, format string, args ...any) *Violation {
	return &Violation{Msg: "dlcheck: " + kind + ": " + fmt.Sprintf(format, args...)}
}

// Error implements error.
func (v *Violation) Error() string { return v.Msg }

// Verdict is the checker's decision over one image.
type Verdict struct {
	// Ops, Reads, Publishes count what the tracker observed online.
	Ops, Reads, Publishes int
	// Durable counts recovered publishes; Acked the durably-acked prefix.
	Durable, Acked int
	// Violations is every violation found, in deterministic order.
	Violations []*Violation
}

// OK reports whether the image is durably linearizable.
func (v *Verdict) OK() bool { return len(v.Violations) == 0 }

// Err returns nil when OK, else every violation joined.
func (v *Verdict) Err() error {
	if v.OK() {
		return nil
	}
	errs := make([]error, len(v.Violations))
	for i, viol := range v.Violations {
		errs[i] = viol
	}
	return errors.Join(errs...)
}

// String renders the greppable verdict line body.
func (v *Verdict) String() string {
	if v.OK() {
		return fmt.Sprintf("OK (%d ops, %d publishes, %d durable, %d reads, %d acked)",
			v.Ops, v.Publishes, v.Durable, v.Reads, v.Acked)
	}
	return fmt.Sprintf("FAILED (%d violations; first: %s)", len(v.Violations), v.Violations[0].Msg)
}

// Merge folds per-shard verdicts into one: counts add, violations
// concatenate in shard order. Nil verdicts (shards that ran without the
// checker) are skipped, and the result is nil when every one is.
func Merge(vs []*Verdict) *Verdict {
	var agg *Verdict
	for _, v := range vs {
		if v == nil {
			continue
		}
		if agg == nil {
			agg = new(Verdict)
		}
		agg.Ops += v.Ops
		agg.Reads += v.Reads
		agg.Publishes += v.Publishes
		agg.Durable += v.Durable
		agg.Acked += v.Acked
		agg.Violations = append(agg.Violations, v.Violations...)
	}
	return agg
}

// Check decides durable linearizability of the image. It runs entirely
// at check time: per-session lost thresholds come from the first
// non-durable publish in program order, full clocks are reconstructed
// from the adaptive timestamps, and the three conditions are checked
// against every durable publish:
//
//	(a) every publish acked durable is recovered;
//	(b) a read that observed another session's write which is lost is
//	    followed by no recovered publish that happens-after it;
//	(c) no recovered publish happens-after another session's lost one.
//
// Closure (c) leaves a session's own program order out. An engine that
// persists a session's unacked writes in any order — pending ops may take
// effect independently — is still durably linearizable, because acks are
// gated on a watermark that passes records in order: (a) holds every
// acked write, and with it everything before it. Edges between sessions
// come only from reads, which the engine must honour. All violations are
// collected — not just the first — so counterexample minimization sees
// the complete diagnosis.
func (t *Tracker) Check(img *Image) *Verdict {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	v := &Verdict{Ops: t.ops, Reads: t.reads, Acked: t.acked}
	nSess := len(t.sess)

	// Durability per observed record; image entries naming unknown
	// records are themselves violations.
	known := make(map[int32]*pubOwner)
	owners := make([]pubOwner, 0, 64)
	for sid, s := range t.sess {
		v.Publishes += len(s.pubs)
		for i := range s.pubs {
			owners = append(owners, pubOwner{sess: int32(sid), pub: &s.pubs[i]})
		}
	}
	for i := range owners {
		known[owners[i].pub.rec] = &owners[i]
	}
	durable := make(map[int32]bool, len(img.Order))
	for _, p := range img.Order {
		rec := int32(p.Rec)
		if known[rec] == nil {
			v.Violations = append(v.Violations, violation(unknownPublish,
				"image orders publish rec %d the tracker never observed", p.Rec))
			continue
		}
		if p.Durable {
			durable[rec] = true
			v.Durable++
		}
	}

	// Per-session lost threshold: the clock position of the first
	// publish (in program order) that is not durable. Everything at or
	// beyond it is lost; a durable publish whose clock includes such a
	// position happens-after a lost effect.
	lostAt := make([]int32, nSess)
	lostRec := make([]int32, nSess)
	for sid, s := range t.sess {
		lostAt[sid], lostRec[sid] = never, -1
		for _, p := range s.pubs {
			if !durable[p.rec] {
				lostAt[sid], lostRec[sid] = p.own, p.rec
				break
			}
		}
	}

	// Walk the image once, reconstructing each durable publish's full
	// clock and checking closure against every other session. maxDur[s]
	// tracks the highest component of s any durable publish carries, with
	// a witness for read diagnostics.
	var full []int32
	maxDur := make([]int32, nSess)
	maxDurWitness := make([]int32, nSess)
	for i := range maxDurWitness {
		maxDurWitness[i] = -1
	}
	for _, p := range img.Order {
		owner := known[int32(p.Rec)]
		if owner == nil {
			continue
		}
		if !p.Durable {
			continue
		}
		full = t.vcAt(owner.pub.own, owner.pub.snap, owner.sess, full[:0])
		for sid := 0; sid < nSess && sid < len(full); sid++ {
			if int32(sid) != owner.sess && full[sid] >= lostAt[sid] {
				v.Violations = append(v.Violations, violation(hbOrder,
					"recovered publish rec %d (session %d) happens-after lost publish rec %d of session %d",
					p.Rec, owner.sess, lostRec[sid], sid))
			}
			if full[sid] > maxDur[sid] {
				maxDur[sid] = full[sid]
				maxDurWitness[sid] = int32(p.Rec)
			}
		}
	}

	// Acked ⇒ recovered: the durably-acked record prefix must be in the
	// image.
	for sid, s := range t.sess {
		for _, p := range s.pubs {
			if int(p.rec) < t.acked && !durable[p.rec] {
				v.Violations = append(v.Violations, violation(ackedLost,
					"publish rec %d (session %d) was acked durable but is not recovered", p.rec, sid))
			}
		}
	}

	// Reads: a client observed another session's write W; if W is lost,
	// nothing that happens-after the read may be recovered. maxDur[s] >
	// idx means some durable publish carries the reader's state past the
	// read.
	for sid, s := range t.sess {
		for _, r := range s.reads {
			if !r.hasW || int(r.w.sess) == sid || durable[r.w.rec] {
				continue
			}
			if sid < len(maxDur) && maxDur[sid] > r.idx {
				v.Violations = append(v.Violations, violation(readContradiction,
					"session %d observed write rec %d of key %q, which is not recovered, but publish rec %d that happens-after the read is",
					sid, r.w.rec, r.key, maxDurWitness[sid]))
			}
		}
	}
	return v
}

// pubOwner pairs a publish with its owning session for check-time
// lookups.
type pubOwner struct {
	sess int32
	pub  *pubRef
}
