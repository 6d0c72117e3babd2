package scenario

// The all-to-all exchange, as both policies and the single-process
// reference run compute it: in every round every member ships a
// deterministic payload to every member, and each task adds the
// signature of what actually arrived to its digest — so one flipped bit
// anywhere on a link shows up in the final answer, and the answer is a
// pure function of (rounds, membership history) that needs no reference
// run.

// ExchangeRounds is the length of the restart policy's exchange; the
// online one runs onlineRounds.
const ExchangeRounds = 12

// mix is the per-(round,src,dst) tag folded into every signature, so a
// payload replayed under the wrong coordinates cannot verify.
func mix(round, src, dst int) uint64 {
	return uint64(round+1)*0x9e3779b97f4a7c15 ^ uint64(src+1)*0xc2b2ae3d27d4eb4f ^ uint64(dst+1)*0x165667b19e3779f9
}

// payload builds the contribution src sends dst in the given round. The
// size varies with the coordinates but, with the sender's metadata, stays
// within one packet: cross-process traffic is eager-only, and a message
// is then a packet of the fault plan's crash@pkt count.
func payload(round, src, dst int) []byte {
	h := mix(round, src, dst)
	b := make([]byte, 16+int(h%433))
	x := h | 1
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 56)
	}
	return b
}

// sigOf digests the payload actually received; sig is the analytic value
// of an intact delivery.
func sigOf(round, src, dst int, data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h ^ mix(round, src, dst)
}

func sig(round, src, dst int) uint64 { return sigOf(round, src, dst, payload(round, src, dst)) }

// segment records which tasks contributed from a given round on. A
// history starts with full membership; each restart truncates it at the
// negotiated resume round and appends the survivor set, because rolled
// back rounds are re-run by the survivors only. Under the online policy
// the victim comes back, so the history stays the one full segment.
type segment struct {
	from  int
	alive []int
}

func fullMembership(nTasks int) []segment {
	all := make([]int, nTasks)
	for i := range all {
		all[i] = i
	}
	return []segment{{from: 0, alive: all}}
}

func aliveAt(segs []segment, round int) []int {
	cur := segs[0].alive
	for _, s := range segs {
		if s.from <= round {
			cur = s.alive
		}
	}
	return cur
}

// truncate rewrites the history for a restart resuming at round from
// with the given members.
func truncate(segs []segment, from int, alive []int) []segment {
	keep := segs[:0]
	for _, s := range segs {
		if s.from < from {
			keep = append(keep, s)
		}
	}
	return append(keep, segment{from: from, alive: append([]int(nil), alive...)})
}

// expectedDigest is the analytic digest of one task after the given
// rounds under the given membership history.
func expectedDigest(task, rounds int, segs []segment) uint64 {
	var dg uint64
	for r := 0; r < rounds; r++ {
		for _, src := range aliveAt(segs, r) {
			dg += sig(r, src, task)
		}
	}
	return dg
}
