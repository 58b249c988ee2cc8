package server

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/qos"
	"repro/internal/rtp"
	"repro/internal/scenario"
)

// This file is the media data plane. A flow is one media server's
// transmission process: it paces one stream's frames according to the flow
// scenario, encodes each frame once, fragments it to MTU-sized RTP packets
// and ships them to its subscribers (RTP/UDP for time-sensitive streams, the
// reliable path for stills). Every session stream is a subscription (a
// sender) to exactly one flow.
//
// A private stream is an unregistered flow of one subscriber. Its encode
// level follows the session's QoS manager frame by frame (the media stream
// quality converter in action), and it can be paused, parked, reloaded and
// disabled. With Options.SharedFlows, sessions viewing the same document at
// the same quality level instead ride one registered flow per time-sensitive
// stream: a fixed encode level, one packet assembly and N deliveries through
// the transport's multi-destination send, so a popular lesson costs O(1)
// encode and pacing work instead of O(viewers) — the broadcast-VoD model of
// Afrin & Rahaman's adaptive quasi harmonic broadcasting applied to the
// paper's lesson service. Late joiners of a registered flow first receive a
// unicast catch-up patch from its bounded segment cache, aligned back to the
// last GoP start so the first patched video frame is decodable. A subscriber
// that pauses, reloads, disables, parks or whose QoS grade diverges forks
// onto a fresh private flow that takes over the cursor, the forked RTP state
// (same SSRC, contiguous sequence numbers) and the schedule, leaving the
// other subscribers untouched. A flow stops when its last subscriber leaves.
//
// Concurrency: everything mutable in a flow sits behind its own mutex, and
// the per-frame emit path — QoS level snapshot, frame encode, fragmentation,
// transport send — takes only that lock, never a shard or registry lock, so
// one stream's pacing neither serializes with other streams nor with the
// control plane. Lock order (extends the shard.go hierarchy): shard.mu →
// flowRegistry.mu → flow.mu. Sender operations run under the owning
// session's shard lock, which makes each sender's flow pointer
// single-writer; readers outside that lock load it atomically.

// pktPool recycles the packet assembly buffers of every flow: RTP header,
// frame header and payload fragment are appended into one pooled buffer per
// packet. Per the netsim.Net ownership rule, Send borrows the buffer only
// for the duration of the call, so it goes straight back to the pool after
// each Send returns.
var pktPool buffer.Pool

// flowKey identifies one registered flow: a document's stream encoded at one
// quality level.
type flowKey struct {
	doc    string
	stream string
	level  int
}

// flowSub is one subscriber: its delivery address and the flow counter
// baselines at attach time, so per-session stats and a fork cover exactly
// the frames this subscriber was sent.
type flowSub struct {
	sn          *sender
	to          netsim.Addr
	baseFrames  int
	basePackets int
	baseBytes   int64
}

// flowSeg is one cached frame in a registered flow's segment cache.
type flowSeg struct {
	idx  int
	pts  time.Duration
	kind media.FrameKind
	size int
	buf  []byte // reused across ring laps; holds the frame payload
}

// segCacheCap bounds a registered flow's segment cache. It covers at least
// one full video GoP (12 frames) plus slack, so a late joiner can always be
// patched back to a decodable I-frame boundary within the cache horizon.
const segCacheCap = 16

// flow is one paced stream transmission.
type flow struct {
	// Immutable after construction.
	srv    *Server
	stream *scenario.Stream
	src    media.Source
	cached media.CachedPayloadSource // non-nil when src caches frame bodies
	sendAt time.Duration             // flow-scenario transmission lead
	ssrc   uint32
	from   netsim.Addr
	emitFn func() // the emit method value, bound once so re-arms don't allocate
	// qos is a private flow's session QoS manager; a registered flow has
	// none and encodes at key.level.
	qos *qos.Manager
	key flowKey

	// mu guards everything below. It is the only lock the per-frame emit
	// path takes.
	mu       sync.Mutex
	rtpS     *rtp.Sender
	scratch  []byte    // reusable payload synthesis buffer, grows to the max frame size
	origin   time.Time // flow time zero
	nextIdx  int
	timer    *clock.Timer
	paused   bool
	pausedAt time.Time
	// parked marks a pause applied by the suspend machinery (park), as
	// opposed to one the user requested: only parked flows wake on
	// reattach, so a user pause survives suspend→resume intact.
	parked   bool
	disabled bool
	finished bool // the stream ran to its end
	stopped  bool // the last subscriber left
	subs     []flowSub
	dests    []netsim.Addr // fan-out addresses, sorted
	cache    []flowSeg     // registered flows only; slot = idx % segCacheCap
	cacheN   int           // frames ever cached

	// Counters. A reload resets a private flow's, so per-document stats and
	// RTCP sender reports describe the current playback.
	framesSent  int
	packetsSent int
	bytesSent   int64
	skipped     int   // frames withheld while the stream was cut off
	delivered   int64 // frames × subscribers actually sent
}

// sender is one session stream's subscription to the flow carrying it.
type sender struct {
	srv    *Server
	stream *scenario.Stream
	sendAt time.Duration
	src    media.Source
	qos    *qos.Manager
	to     netsim.Addr
	fl     atomic.Pointer[flow]
}

// flowRegistry indexes the server's registered flows.
type flowRegistry struct {
	mu    sync.Mutex
	flows map[flowKey]*flow
}

// newFlow builds an unarmed flow for sn's stream with sn as its only
// subscriber. mgr is the session's QoS manager for a private flow, nil for
// a registered one.
func newFlow(sn *sender, ssrc uint32, level int, origin time.Time, mgr *qos.Manager) *flow {
	fl := &flow{
		srv:    sn.srv,
		stream: sn.stream,
		src:    sn.src,
		sendAt: sn.sendAt,
		ssrc:   ssrc,
		from:   netsim.MakeAddr(sn.srv.Name, mediaPort),
		qos:    mgr,
		origin: origin,
		rtpS:   rtp.NewSender(ssrc, sn.src.PayloadType(level), 0),
	}
	fl.cached, _ = sn.src.(media.CachedPayloadSource)
	fl.emitFn = fl.emit
	fl.setSubsLocked([]flowSub{{sn: sn, to: sn.to}})
	return fl
}

// setSubsLocked replaces the subscriber list and refreshes the fan-out
// addresses, sorted for a deterministic delivery order. Caller holds fl.mu
// or owns fl alone.
func (fl *flow) setSubsLocked(subs []flowSub) {
	fl.subs = subs
	fl.dests = fl.dests[:0]
	for _, sub := range subs {
		fl.dests = append(fl.dests, sub.to)
	}
	slices.Sort(fl.dests)
}

// sendAtForLocked returns the wall send instant of frame i.
func (fl *flow) sendAtForLocked(i int) time.Time {
	pts := time.Duration(i) * fl.src.FrameInterval()
	return fl.origin.Add(fl.sendAt + pts)
}

// arm schedules the next frame.
func (fl *flow) arm() {
	fl.mu.Lock()
	fl.armLocked()
	fl.mu.Unlock()
}

func (fl *flow) armLocked() {
	if fl.finished || fl.stopped || fl.paused || fl.disabled {
		return
	}
	d := fl.sendAtForLocked(fl.nextIdx).Sub(fl.srv.clk.Now())
	if d < 0 {
		d = 0
	}
	// Reuse one timer across the stream's whole life: re-arming with Reset
	// is allocation-free on both clock implementations, and per-frame
	// re-arm is the steady state of the pacing loop.
	if fl.timer == nil {
		fl.timer = fl.srv.clk.AfterFunc(d, fl.emitFn)
	} else {
		fl.timer.Reset(d)
	}
}

func (fl *flow) stopTimerLocked() {
	if fl.timer != nil {
		fl.timer.Stop()
		fl.timer = nil
	}
}

// emit transmits one frame and schedules the next. It runs on the pacing
// timer and holds only the flow's own lock.
func (fl *flow) emit() {
	fl.mu.Lock()
	if fl.emitFrameLocked() {
		fl.armLocked()
	}
	fl.mu.Unlock()
}

// emitFrameLocked encodes and transmits the frame at the pacing cursor (or
// accounts a withheld one) and advances the cursor. It reports whether
// pacing should continue. Caller holds fl.mu; the method touches no
// server-wide state: a private flow's QoS level comes through the manager's
// own fine-grained lock and the packets go straight to the transport.
func (fl *flow) emitFrameLocked() bool {
	if fl.finished || fl.stopped || fl.paused || fl.disabled {
		return false
	}
	i := fl.nextIdx
	pts := time.Duration(i) * fl.src.FrameInterval()
	if fl.stream.Duration > 0 && pts >= fl.stream.Duration {
		fl.finished = true
		return false
	}
	if !fl.stream.Type.TimeSensitive() && i > 0 {
		// Stills are one-shot.
		fl.finished = true
		return false
	}
	level := fl.key.level
	if fl.qos != nil {
		lvl, stopped := fl.qos.Level(fl.stream.ID)
		if stopped {
			// Cut off by the long-term mechanism: withhold the frame but
			// keep pacing so a restore resumes cleanly.
			fl.nextIdx++
			fl.skipped++
			return true
		}
		level = lvl
	}
	fl.nextIdx++
	// Sampled frame span, hop 1 (emit→wire): wall-clock service time from
	// here to the last fragment handed to the transport. The 1-in-N decision
	// keys on the frame index the wire header carries, so every subscriber's
	// client samples the same frames for the downstream hops. Allocation-free:
	// two wall stamps and an atomic histogram observe.
	spanned := fl.srv.spans.Sampled(uint32(i))
	var spanT0 time.Time
	if spanned {
		spanT0 = time.Now()
	}

	frame := fl.src.FrameAt(i, level)
	fl.rtpS.PayloadType = fl.src.PayloadType(level)

	// Frame body: a cached still body when the source keeps one, otherwise
	// synthesized into the flow's reusable scratch (which grows once to the
	// stream's largest frame and is then allocation-free).
	payload := []byte(nil)
	if fl.cached != nil {
		payload = fl.cached.CachedPayload(i, frame.Level)
	}
	if payload == nil {
		fl.scratch = media.AppendPayload(fl.scratch[:0], fl.stream.ID, i, frame.Size)
		payload = fl.scratch
	}
	if fl.cache != nil {
		fl.storeSegLocked(i, frame, payload)
	}

	// Single-pass packet assembly: RTP header, frame header and payload
	// fragment are appended into one pooled buffer, handed to the transport
	// (which, per the netsim.Net ownership rule, borrows it only for the
	// duration of the send) and immediately recycled.
	fragCount := media.FragmentCount(frame.Size)
	pkt := netsim.Packet{From: fl.from, Reliable: !fl.stream.Type.TimeSensitive()}
	for fi := 0; fi < fragCount; fi++ {
		off, fsize := media.FragmentSpan(frame.Size, fi)
		pb := pktPool.Get(rtp.HeaderSize + media.FrameHeaderSize + fsize)
		buf := fl.rtpS.AppendNext(pb.B[:0], frame.PTS, fi == fragCount-1, media.FrameHeaderSize+fsize)
		hdr := media.FrameHeader{
			Index:     uint32(i),
			Level:     uint8(frame.Level),
			Kind:      frame.Kind,
			Frag:      uint16(fi),
			FragCount: uint16(fragCount),
			FrameSize: uint32(frame.Size),
		}
		buf = hdr.AppendTo(buf)
		buf = append(buf, payload[off:off+fsize]...)
		pb.B = buf
		fl.packetsSent++
		fl.bytesSent += int64(media.FrameHeaderSize + fsize)
		pkt.Payload = buf
		fl.sendLocked(pkt)
		pktPool.Put(pb)
	}
	fl.framesSent++
	fl.delivered += int64(len(fl.dests))
	fl.srv.mFrames.Inc()
	fl.srv.mPackets.Add(int64(fragCount))
	fl.srv.mBytes.Add(int64(frame.Size))
	fl.srv.mDelivered.Add(int64(len(fl.dests)))
	if spanned {
		fl.srv.spans.RecordEmit(fl.stream.ID, time.Since(spanT0))
	}
	return true
}

// sendLocked ships one packet to the flow's subscribers: point to point for
// a private flow; for a registered flow through the transport's
// multi-destination send when it has one (one refcounted payload copy), a
// per-destination Send loop otherwise.
func (fl *flow) sendLocked(pkt netsim.Packet) {
	switch {
	case fl.qos != nil:
		pkt.To = fl.dests[0]
		fl.srv.net.Send(pkt)
	case fl.srv.multi != nil:
		fl.srv.multi.SendMulti(pkt, fl.dests)
	default:
		for _, to := range fl.dests {
			pkt.To = to
			fl.srv.net.Send(pkt)
		}
	}
}

// storeSegLocked copies one emitted frame into the bounded segment cache.
// Slot buffers are reused across ring laps, so the steady state allocates
// nothing once every slot has grown to the stream's largest frame.
func (fl *flow) storeSegLocked(idx int, frame media.Frame, payload []byte) {
	seg := &fl.cache[idx%segCacheCap]
	seg.idx = idx
	seg.pts = frame.PTS
	seg.kind = frame.Kind
	seg.size = frame.Size
	seg.buf = append(seg.buf[:0], payload...)
	fl.cacheN++
}

// pump emits up to n frames back-to-back, bypassing the pacing timer: the
// data-plane load harness's way of driving a flow at full rate from its own
// goroutine. It returns per-frame emit service times.
func (fl *flow) pump(n int) []time.Duration {
	times := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fl.mu.Lock()
		more := fl.emitFrameLocked()
		fl.mu.Unlock()
		times = append(times, time.Since(t0))
		if !more {
			break
		}
	}
	return times
}

// flowPatchDelay is how long after an attach the catch-up patch goes on the
// wire: long enough that the DocResponse (reliable, in-order) has reached
// the client and its media listeners are up, short against any playout
// deadline.
const flowPatchDelay = 50 * time.Millisecond

// catchUpLocked builds a late joiner's unicast catch-up patch from the
// segment cache, aligned back to the most recent cached GoP start (I-frame)
// so the first patched frame is decodable. The patch packets reuse the
// original frame indices, timestamps and payload bytes, with sequence
// numbers immediately below the flow's cursor at attach time — the joiner's
// receiver sees one contiguous sequence range: patch below, live frames
// above, no synthetic loss gap regardless of arrival order. Audio and other
// GoP-free streams return no patch (every frame is independently decodable,
// the joiner just rides the live cursor). The packets are returned, not
// sent: the caller transmits them after flowPatchDelay so they cannot beat
// the DocResponse to a client that is not yet listening.
func (fl *flow) catchUpLocked() (patch [][]byte, frames, packets int, bytes int64) {
	lo := fl.cacheN - segCacheCap
	if lo < 0 {
		lo = 0
	}
	gop := -1
	for i := fl.cacheN - 1; i >= lo; i-- {
		if fl.cache[i%segCacheCap].kind == media.FrameI {
			gop = i
			break
		}
	}
	if gop < 0 {
		return nil, 0, 0, 0
	}
	totalPkts := 0
	for i := gop; i < fl.cacheN; i++ {
		totalPkts += media.FragmentCount(fl.cache[i%segCacheCap].size)
	}
	seq := fl.rtpS.Seq() - uint16(totalPkts)
	pt := fl.src.PayloadType(fl.key.level)
	for i := gop; i < fl.cacheN; i++ {
		seg := &fl.cache[i%segCacheCap]
		fragCount := media.FragmentCount(seg.size)
		for fi := 0; fi < fragCount; fi++ {
			off, fsize := media.FragmentSpan(seg.size, fi)
			buf := make([]byte, 0, rtp.HeaderSize+media.FrameHeaderSize+fsize)
			buf = rtp.AppendHeader(buf, fi == fragCount-1, pt, seq, rtp.ToTimestamp(seg.pts), fl.ssrc)
			seq++
			hdr := media.FrameHeader{
				Index:     uint32(seg.idx),
				Level:     uint8(fl.key.level),
				Kind:      seg.kind,
				Frag:      uint16(fi),
				FragCount: uint16(fragCount),
				FrameSize: uint32(seg.size),
			}
			buf = hdr.AppendTo(buf)
			buf = append(buf, seg.buf[off:off+fsize]...)
			patch = append(patch, buf)
			packets++
			bytes += int64(media.FrameHeaderSize + fsize)
		}
		frames++
	}
	return patch, frames, packets, bytes
}

// idleLocked reports whether the flow has stopped carrying its stream:
// stopped, disabled, or a private stream that ran to its end. A finished
// registered flow still reports to its subscribers until the last leaves.
func (fl *flow) idleLocked() bool {
	return fl.stopped || fl.disabled || fl.finished && fl.qos != nil
}

// attach joins sn to the registered flow of key, creating the flow if it
// does not exist (or if only a finished husk remains). It returns the flow,
// whose SSRC the caller announces. Caller holds the session's shard lock.
func (r *flowRegistry) attach(key flowKey, sn *sender, origin time.Time) *flow {
	srv := sn.srv
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.flows == nil {
		r.flows = map[flowKey]*flow{}
	}
	if fl := r.flows[key]; fl != nil {
		fl.mu.Lock()
		if !fl.finished && !fl.stopped {
			patch, cf, cp, cb := fl.catchUpLocked()
			fl.setSubsLocked(append(fl.subs, flowSub{
				sn:          sn,
				to:          sn.to,
				baseFrames:  fl.framesSent - cf,
				basePackets: fl.packetsSent - cp,
				baseBytes:   fl.bytesSent - cb,
			}))
			fl.mu.Unlock()
			sn.fl.Store(fl)
			if len(patch) > 0 {
				srv.cFlowCatchup.Add(int64(cf))
				srv.mDelivered.Add(int64(cf))
				from, to := fl.from, sn.to
				srv.clk.AfterFunc(flowPatchDelay, func() {
					for _, buf := range patch {
						srv.net.Send(netsim.Packet{From: from, To: to, Payload: buf})
					}
				})
			}
			srv.cFlowAttaches.Inc()
			return fl
		}
		fl.mu.Unlock()
		delete(r.flows, key)
	}
	fl := newFlow(sn, srv.nextSSRC.Add(1), key.level, origin, nil)
	fl.key = key
	fl.cache = make([]flowSeg, segCacheCap)
	fl.arm()
	r.flows[key] = fl
	sn.fl.Store(fl)
	srv.cFlowsCreated.Inc()
	srv.cFlowAttaches.Inc()
	return fl
}

// leaveLocked removes sn from fl and returns its subscription. The last
// subscriber out stops the flow and unregisters it, so one more attach for
// the same key builds a fresh flow. Caller holds r.mu and fl.mu.
func (r *flowRegistry) leaveLocked(fl *flow, sn *sender) flowSub {
	var sub flowSub
	for i := range fl.subs {
		if fl.subs[i].sn == sn {
			sub = fl.subs[i]
			fl.setSubsLocked(append(fl.subs[:i], fl.subs[i+1:]...))
			break
		}
	}
	if fl.qos == nil {
		fl.srv.cFlowDetaches.Inc()
	}
	if len(fl.subs) == 0 && !fl.stopped {
		fl.stopped = true
		fl.stopTimerLocked()
		if fl.qos == nil {
			if r.flows[fl.key] == fl {
				delete(r.flows, fl.key)
			}
			fl.srv.cFlowsTorn.Inc()
		}
	}
	return sub
}

// fork moves sn off the registered flow fl onto a fresh, unarmed private
// flow of one. The new flow takes over the pacing cursor, the forked RTP
// state (same SSRC, contiguous sequence numbers), the subscriber's share of
// the counters, and the origin that keeps its next frame on fl's schedule.
// Caller holds the session's shard lock.
func (r *flowRegistry) fork(fl *flow, sn *sender) *flow {
	r.mu.Lock()
	defer r.mu.Unlock()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	nextAt := fl.sendAtForLocked(fl.nextIdx)
	pts := time.Duration(fl.nextIdx) * sn.src.FrameInterval()
	nf := newFlow(sn, fl.ssrc, 0, nextAt.Add(-(sn.sendAt + pts)), sn.qos)
	nf.rtpS = fl.rtpS.Fork()
	nf.nextIdx = fl.nextIdx
	nf.finished = fl.finished
	sub := r.leaveLocked(fl, sn)
	nf.framesSent = fl.framesSent - sub.baseFrames
	nf.packetsSent = fl.packetsSent - sub.basePackets
	nf.bytesSent = fl.bytesSent - sub.baseBytes
	sn.fl.Store(nf)
	return nf
}

// private returns the sender's flow, forking it off a registered flow first
// so a local divergence never disturbs the other subscribers. Caller holds
// the session's shard lock.
func (sn *sender) private() *flow {
	fl := sn.fl.Load()
	if fl.qos != nil {
		return fl
	}
	return sn.srv.flows.fork(fl, sn)
}

// start arms a private flow's first frame; a registered flow paces from the
// moment it was created.
func (sn *sender) start() {
	if fl := sn.fl.Load(); fl.qos != nil {
		fl.arm()
	}
}

// diverge moves a subscriber whose QoS grade left its registered flow's
// level onto a private flow that paces on from the same cursor.
func (sn *sender) diverge() {
	if sn.fl.Load().qos == nil {
		sn.private().arm()
	}
}

// pause stops pacing at the user's request.
func (sn *sender) pause() { sn.halt(false) }

// park stops pacing for a session suspend.
func (sn *sender) park() { sn.halt(true) }

// halt stops pacing. It is a no-op once paused — so a park never clobbers a
// user pause, whose pausedAt stays for the eventual Resume to shift the
// origin across the whole stillness — and once disabled, like armLocked: a
// disabled stream must never record pausedAt or shift its origin again.
// Only a halt by park marks the flow parked, for unpark to wake.
func (sn *sender) halt(parked bool) {
	fl := sn.private()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.paused || fl.finished || fl.disabled {
		return
	}
	fl.paused = true
	fl.parked = parked
	fl.pausedAt = fl.srv.clk.Now()
	fl.stopTimerLocked()
}

// isPaused reports whether pacing is currently paused.
func (sn *sender) isPaused() bool {
	fl := sn.fl.Load()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.paused
}

// resume continues pacing after a pause.
func (sn *sender) resume() { sn.wake(false) }

// unpark wakes a stream only if park stopped it: a stream the user paused
// before the suspend stays paused until the user's own Resume.
func (sn *sender) unpark() { sn.wake(true) }

// wake resumes pacing, shifting the origin by the pause length so
// inter-frame spacing is preserved. No-op once disabled (the symmetric guard
// to halt: origin arithmetic must not drift on a dead stream).
func (sn *sender) wake(parkedOnly bool) {
	fl := sn.fl.Load()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if !fl.paused || parkedOnly && !fl.parked || fl.finished || fl.disabled {
		return
	}
	fl.paused = false
	fl.parked = false
	fl.origin = fl.origin.Add(fl.srv.clk.Now().Sub(fl.pausedAt))
	fl.armLocked()
}

// restart replays the stream from the beginning (reload). Counters — both
// the flow's own and the RTP-layer totals carried in RTCP sender reports —
// reset so per-document stats describe the new playback only. The fresh RTP
// state is seeded with the payload type of the session's CURRENT quality
// level: a reload of a degraded session must keep advertising the degraded
// codec, not snap back to level 0 until the next renegotiation.
func (sn *sender) restart(origin time.Time) {
	fl := sn.private()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	fl.stopTimerLocked()
	fl.origin = origin
	fl.nextIdx = 0
	fl.finished = false
	fl.paused = false
	fl.parked = false
	fl.framesSent, fl.packetsSent, fl.bytesSent, fl.skipped = 0, 0, 0, 0
	level, _ := fl.qos.Level(fl.stream.ID)
	fl.rtpS = rtp.NewSender(fl.ssrc, fl.src.PayloadType(level), 0)
	fl.armLocked()
}

// disable stops the stream permanently (user disabled this media).
func (sn *sender) disable() {
	fl := sn.private()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	fl.disabled = true
	fl.stopTimerLocked()
}

// stop ends the subscription.
func (sn *sender) stop() {
	fl := sn.fl.Load()
	r := &sn.srv.flows
	r.mu.Lock()
	fl.mu.Lock()
	r.leaveLocked(fl, sn)
	fl.mu.Unlock()
	r.mu.Unlock()
}

// report builds the RTCP SR of the stream's flow, or nil when it is idle or
// has sent nothing. Every subscriber of a registered flow relays the same SR
// — correct, since they all receive the same SSRC's stream.
func (sn *sender) report(now time.Time, mediaTime time.Duration) *rtp.SenderReport {
	fl := sn.fl.Load()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.idleLocked() || fl.rtpS.PacketCount() == 0 {
		return nil
	}
	return fl.rtpS.Report(now, mediaTime)
}

// nominalRate returns the stream's current reservation-relevant rate: zero
// when the stream is cut off or its flow idle, its per-level codec rate
// otherwise.
func (sn *sender) nominalRate() float64 {
	level, stopped := sn.qos.Level(sn.stream.ID)
	fl := sn.fl.Load()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if stopped || fl.idleLocked() {
		return 0
	}
	return sn.src.Bitrate(level)
}

// senderStats is a snapshot of one subscription's transmission counters.
type senderStats struct {
	frames  int
	packets int
	bytes   int64
	skipped int
}

// stats snapshots the subscriber's share of its flow's counters (since
// attach, including any catch-up patch) race-cleanly.
func (sn *sender) stats() senderStats {
	fl := sn.fl.Load()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for _, sub := range fl.subs {
		if sub.sn == sn {
			return senderStats{
				frames:  fl.framesSent - sub.baseFrames,
				packets: fl.packetsSent - sub.basePackets,
				bytes:   fl.bytesSent - sub.baseBytes,
				skipped: fl.skipped,
			}
		}
	}
	return senderStats{}
}

// FlowStat is one registered flow's public snapshot.
type FlowStat struct {
	Doc         string
	Stream      string
	Level       int
	Subscribers int
	Frames      int
	Delivered   int64
}

// FlowStats snapshots every registered flow (empty when shared flows are
// off or no flow is active); private flows are not listed.
func (s *Server) FlowStats() []FlowStat {
	s.flows.mu.Lock()
	defer s.flows.mu.Unlock()
	out := make([]FlowStat, 0, len(s.flows.flows))
	for key, fl := range s.flows.flows {
		fl.mu.Lock()
		out = append(out, FlowStat{
			Doc:         key.doc,
			Stream:      key.stream,
			Level:       key.level,
			Subscribers: len(fl.subs),
			Frames:      fl.framesSent,
			Delivered:   fl.delivered,
		})
		fl.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Doc != out[j].Doc {
			return out[i].Doc < out[j].Doc
		}
		return out[i].Stream < out[j].Stream
	})
	return out
}
