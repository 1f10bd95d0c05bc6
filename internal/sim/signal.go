package sim

// Signal is a one-shot broadcast latch. Components that must wait for a
// condition (an epoch persisting, a flush completing) subscribe a callback;
// when the owner fires the signal every subscriber runs, in subscription
// order, at the firing cycle. Subscribing after the fire runs the callback
// immediately. The zero value is an unfired signal.
type Signal struct {
	fired bool
	subs  []func()
}

// Subscribe registers fn to run when the signal fires. If the signal has
// already fired, fn runs synchronously.
func (s *Signal) Subscribe(fn func()) {
	if s.fired {
		fn()
		return
	}
	s.subs = append(s.subs, fn)
}

// Fire raises the signal, running all subscribers in order. Firing twice is
// a no-op; the protocol layers treat signals as monotone facts.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	subs := s.subs
	s.subs = nil
	for i, fn := range subs {
		subs[i] = nil
		fn()
	}
	if s.subs == nil {
		s.subs = subs[:0] // keep the array for a Reset signal's next round
	}
}

// Reset returns a fired signal to the unfired state, so a signal embedded
// in a reused frame can serve again (its subscriber array is kept, so a
// steady-state Subscribe does not allocate). A subscriber may Reset the
// signal it was fired from and subscribe to the next round: that round's
// subscribers run at the next Fire, not in the one running.
func (s *Signal) Reset() { s.fired = false }
