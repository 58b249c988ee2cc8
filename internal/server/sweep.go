package server

import (
	"time"

	"repro/internal/obs"
)

// This file holds the incremental periodic work of the control plane. The
// old implementation swept *every* resident session (and every dedup ring)
// on each tick — O(resident) work whether or not anything was due. Both
// sweeps now run on hashed timer wheels keyed on each entry's next
// deadline, so a tick costs O(entries due now) plus a constant bucket walk,
// and a server with 100k idle-but-alive sessions pays the same per tick as
// one with 1k. RTCP feedback renegotiation is batched the same way: a
// feedback packet marks its session dirty, and a per-shard tick
// renegotiates each dirty session once instead of once per packet.

// wheelPos locates an entry inside a wheel for O(1) removal. A negative
// bucket means "not queued". Entries embed one wheelPos per wheel they can
// sit on and must initialize it with noWheelPos.
type wheelPos struct{ bucket, slot int }

func noWheelPos() wheelPos { return wheelPos{bucket: -1, slot: -1} }

// wheel is a hashed timer wheel: fixed-width time buckets indexed by
// deadline/gran modulo the bucket count. schedule and remove are O(1);
// advance visits each bucket at most once per gran. Entries whose bucket
// comes up before their true deadline (wrap-around after a long sleep) are
// simply rescheduled by the fire callback's lazy deadline re-check. Not
// goroutine-safe: each wheel is guarded by its shard's lock.
type wheel[T any] struct {
	gran    time.Duration
	buckets [][]T
	pos     func(T) *wheelPos
	cursor  int64 // absolute index of the last drained bucket
	count   int
}

func newWheel[T any](now time.Time, gran time.Duration, buckets int, pos func(T) *wheelPos) *wheel[T] {
	if buckets < 2 {
		buckets = 2
	}
	w := &wheel[T]{gran: gran, buckets: make([][]T, buckets), pos: pos}
	w.cursor = w.bucketNum(now)
	return w
}

func (w *wheel[T]) bucketNum(t time.Time) int64 { return t.UnixNano() / int64(w.gran) }

// Len returns the number of queued entries.
func (w *wheel[T]) Len() int { return w.count }

// schedule (re)queues item for deadline, clamping already-due deadlines to
// the next drain so an entry is never parked behind the cursor.
func (w *wheel[T]) schedule(item T, deadline time.Time) {
	w.remove(item)
	b := w.bucketNum(deadline)
	if b <= w.cursor {
		b = w.cursor + 1
	}
	idx := int(b % int64(len(w.buckets)))
	p := w.pos(item)
	p.bucket = idx
	p.slot = len(w.buckets[idx])
	w.buckets[idx] = append(w.buckets[idx], item)
	w.count++
}

// remove dequeues item if queued (swap-remove via its stored position).
func (w *wheel[T]) remove(item T) {
	p := w.pos(item)
	if p.bucket < 0 {
		return
	}
	b := w.buckets[p.bucket]
	last := len(b) - 1
	moved := b[last]
	b[p.slot] = moved
	w.pos(moved).slot = p.slot
	var zero T
	b[last] = zero
	w.buckets[p.bucket] = b[:last]
	p.bucket, p.slot = -1, -1
	w.count--
}

// advance drains every bucket due by now. fire returns the entry's next
// deadline; a zero time drops it. The walk is capped at one full rotation:
// after a long sleep every bucket is visited exactly once and still-future
// entries are rescheduled by their returned deadlines.
func (w *wheel[T]) advance(now time.Time, fire func(T) time.Time) {
	target := w.bucketNum(now)
	if target <= w.cursor {
		return
	}
	if w.count == 0 {
		w.cursor = target
		return
	}
	first := w.cursor + 1
	if target-first >= int64(len(w.buckets)) {
		first = target - int64(len(w.buckets)) + 1
	}
	for b := first; b <= target; b++ {
		w.cursor = b
		idx := int(b % int64(len(w.buckets)))
		due := w.buckets[idx]
		if len(due) == 0 {
			continue
		}
		// Detach the bucket first: fire may reschedule entries, and fresh
		// inserts must land on the live slice, not the one being drained.
		w.buckets[idx] = nil
		for _, item := range due {
			p := w.pos(item)
			p.bucket, p.slot = -1, -1
		}
		w.count -= len(due)
		for _, item := range due {
			if next := fire(item); !next.IsZero() {
				w.schedule(item, next)
			}
		}
	}
}

// livenessWindow is the silence budget after which a heartbeat-capable
// session is auto-suspended.
func (s *Server) livenessWindow() time.Duration {
	return time.Duration(s.opts.LivenessMisses) * s.opts.HeartbeatEvery
}

// scheduleLivenessLocked keys the session on its next liveness deadline and
// arms the shard's sweep tick. Caller holds sh.mu. Only the heartbeat path
// and the ResumeSession recovery path schedule here, mirroring where the
// old global sweep armed: token resumes and raw-packet sessions are never
// liveness-policed.
func (s *Server) scheduleLivenessLocked(sh *ctrlShard, si int, sess *session) {
	sh.live.schedule(sess, sess.lastBeat.Add(s.livenessWindow()))
	if !sh.liveOn {
		sh.liveOn = true
		s.clk.AfterFunc(s.opts.HeartbeatEvery, func() { s.liveTick(si) })
	}
}

// liveTick is one shard's liveness sweep: it drains the sessions whose
// deadline came up, auto-suspends the truly silent ones and re-keys the
// rest on their refreshed deadlines. Cost is O(sessions due this tick). The
// tick re-arms only while the wheel holds entries, so an idle server's
// virtual clock can still drain.
func (s *Server) liveTick(si int) {
	t0 := time.Now()
	defer func() { s.hLiveTick.Observe(time.Since(t0)) }()
	sh := &s.shards[si]
	sh.mu.Lock()
	now := s.clk.Now()
	window := s.livenessWindow()
	sh.live.advance(now, func(sess *session) time.Time {
		if sess.suspended || sess.lastBeat.IsZero() {
			return time.Time{}
		}
		if now.Sub(sess.lastBeat) >= window {
			s.suspendSessionLocked(sh, sess)
			s.opts.Obs.Counter("server_sessions_suspended_liveness").Inc()
			s.opts.Obs.Emit(obs.EvLiveness, sess.user, 0,
				"client silent; session "+sess.id+" auto-suspended")
			return time.Time{}
		}
		return sess.lastBeat.Add(window)
	})
	if sh.live.Len() > 0 {
		s.clk.AfterFunc(s.opts.HeartbeatEvery, func() { s.liveTick(si) })
	} else {
		sh.liveOn = false
	}
	sh.mu.Unlock()
}

// dedupTick is one shard's sessionless-ring sweep: it drains the rings
// whose TTL came up and evicts the ones still sessionless and idle.
// Session-backed rings are dropped from the wheel at their first fire —
// they are deleted with their session — so a server whose only rings
// belong to live sessions stops ticking entirely (and a virtual clock can
// drain), instead of re-arming every TTL forever.
func (s *Server) dedupTick(si int) {
	t0 := time.Now()
	defer func() { s.hDedupTick.Observe(time.Since(t0)) }()
	sh := &s.shards[si]
	// Session liveness is consulted under sh.mu; rings live under sh.dmu
	// (mu → dmu, matching the handler path's order).
	sh.mu.Lock()
	sh.dmu.Lock()
	now := s.clk.Now()
	sh.rings.advance(now, func(ring *dedupRing) time.Time {
		if _, live := sh.sessions[ring.addr]; live {
			return time.Time{}
		}
		if now.Sub(ring.lastUsed) >= dedupTTL {
			delete(sh.dedup, ring.addr)
			return time.Time{}
		}
		return ring.lastUsed.Add(dedupTTL)
	})
	if sh.rings.Len() > 0 {
		s.clk.AfterFunc(sh.rings.gran, func() { s.dedupTick(si) })
	} else {
		sh.ringsOn = false
	}
	sh.dmu.Unlock()
	sh.mu.Unlock()
}

// releaseRingLocked returns a session's reply cache to the TTL wheel when
// the session leaves its address (cross-address reattach): the ring is
// sessionless again and must not outlive the TTL. Caller holds sh.mu.
func (s *Server) releaseRingLocked(sh *ctrlShard, si int, addr string) {
	sh.dmu.Lock()
	if ring, ok := sh.dedup[addr]; ok {
		sh.rings.schedule(ring, ring.lastUsed.Add(dedupTTL))
		if !sh.ringsOn {
			sh.ringsOn = true
			s.clk.AfterFunc(sh.rings.gran, func() { s.dedupTick(si) })
		}
	}
	sh.dmu.Unlock()
}

// dropRingLocked deletes an address's reply cache outright (session
// teardown). Caller holds sh.mu.
func (sh *ctrlShard) dropRingLocked(addr string) {
	sh.dmu.Lock()
	if ring, ok := sh.dedup[addr]; ok {
		sh.rings.remove(ring)
		delete(sh.dedup, addr)
	}
	sh.dmu.Unlock()
}

// queueRenegotiate marks a session's reservation dirty and arms its
// shard's renegotiation tick. RTCP feedback calls this instead of
// renegotiating inline, so a feedback burst costs one admission-pool
// renegotiation per session per tick, not one per packet.
func (s *Server) queueRenegotiate(sess *session) {
	if !sess.renegQueued.CompareAndSwap(false, true) {
		return
	}
	sh, si := s.lockSession(sess)
	sh.reneg = append(sh.reneg, sess)
	if !sh.renegOn {
		sh.renegOn = true
		s.clk.AfterFunc(s.opts.HeartbeatEvery, func() { s.renegTick(si) })
	}
	sh.mu.Unlock()
}

// renegTick renegotiates every session marked dirty since the last tick:
// the session's reservation is resized to the aggregate nominal rate of
// its streams at their current quality levels ([KRI 94]-style service
// renegotiation). The shard lock covers only the batch swap and the
// sender-list snapshots; per-stream rates are read under each stream's
// flow lock and the admission pool has its own.
func (s *Server) renegTick(si int) {
	sh := &s.shards[si]
	type item struct {
		snds   []*sender
		connID int
	}
	sh.mu.Lock()
	batch := sh.reneg
	sh.reneg = nil
	sh.renegOn = false
	items := make([]item, 0, len(batch))
	for _, sess := range batch {
		sess.renegQueued.Store(false)
		// Skip sessions torn down — or moved to another shard — since they
		// were queued; a moved session's next feedback re-queues it there.
		if sh.byID[sess.id] != sess {
			continue
		}
		items = append(items, item{snds: append([]*sender(nil), sess.senders...), connID: sess.connID})
	}
	sh.mu.Unlock()
	for _, it := range items {
		total := 0.0
		for _, snd := range it.snds {
			total += snd.nominalRate()
		}
		s.adm.Renegotiate(it.connID, total)
		s.opts.Obs.Counter("server_renegotiations").Inc()
	}
	if len(items) > 0 {
		s.opts.Obs.Counter("server_reneg_batches").Inc()
	}
}
