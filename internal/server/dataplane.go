package server

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/hml"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
)

// This file is the data-plane load harness: it stands up one server with N
// sessions playing a multi-stream document and measures the media emit path
// in two phases. The paced phase drives the virtual clock so every sender
// fires on its flow-scenario timer, and samples the control-plane lock
// meters (summed across shards) across the window to prove per-frame
// emission never touches a shard's write lock. The
// pump phase drives each sender back-to-back from its own goroutine against
// a counting sink transport, measuring genuine parallel throughput and the
// per-frame emit service time whose tail is the pacing-jitter bound: a frame
// cannot leave more than one service time late because of lock contention.

// DataPlaneConfig sizes one load run.
type DataPlaneConfig struct {
	// Sessions is the number of concurrent client sessions.
	Sessions int
	// FramesPerSender bounds the pump phase's frames per time-sensitive
	// sender.
	FramesPerSender int
	// PacedWindow is how much virtual time the paced phase advances. Keep
	// it under the 5 s RTCP sender-report period so the window contains
	// nothing but media pacing.
	PacedWindow time.Duration
	// DisableObs runs without a telemetry scope (and thus without frame
	// spans); the overhead benchmark pairs a run against a default run to
	// price the sampled span instrumentation.
	DisableObs bool
	// SharedFlows turns on shared-flow fan-out: sessions viewing the same
	// document ride one paced flow (one encode, N deliveries).
	SharedFlows bool
	// Docs is how many distinct documents the sessions spread across
	// (default 1: every session views the same hot document).
	Docs int
	// ZipfS is the Zipf popularity exponent used to assign sessions to
	// documents when Docs > 1. The assignment is a deterministic
	// inverse-CDF spread — session i lands on the document whose
	// cumulative weight covers (i+0.5)/Sessions — so runs are exactly
	// reproducible with no RNG. Zero means uniform popularity.
	ZipfS float64
}

func (c *DataPlaneConfig) fill() {
	if c.Sessions <= 0 {
		c.Sessions = 1
	}
	if c.FramesPerSender <= 0 {
		c.FramesPerSender = 200
	}
	if c.PacedWindow <= 0 || c.PacedWindow >= 5*time.Second {
		c.PacedWindow = 4 * time.Second
	}
	if c.Docs <= 0 {
		c.Docs = 1
	}
}

// DataPlaneResult is one load run's measurement, JSON-shaped for
// BENCH_dataplane.json.
type DataPlaneResult struct {
	Sessions int `json:"sessions"`
	Senders  int `json:"senders"`

	// Paced phase: virtual-clock pacing over PacedWindow.
	PacedFrames   int64 `json:"paced_frames"`
	PacedLockAcqs int64 `json:"paced_lock_acqs"` // shard write-lock acquisitions during pacing; must be 0

	// Allocation footprint (runtime.MemStats deltas over each phase divided
	// by its frames). The steady-state emit path is pooled and append-style,
	// so the paced numbers must stay at (amortized) zero — the regression
	// test pins them.
	PacedAllocsPerFrame     float64 `json:"paced_allocs_per_frame"`
	PacedAllocBytesPerFrame float64 `json:"paced_alloc_bytes_per_frame"`
	PumpAllocsPerFrame      float64 `json:"pump_allocs_per_frame"`
	PumpAllocBytesPerFrame  float64 `json:"pump_alloc_bytes_per_frame"`

	// Pump phase: parallel full-rate emission, one goroutine per sender.
	PumpFrames    int64   `json:"pump_frames"`
	PumpPackets   int64   `json:"pump_packets"`
	PumpBytes     int64   `json:"pump_bytes"`
	ElapsedMicros int64   `json:"elapsed_us"`
	FramesPerSec  float64 `json:"frames_per_sec"`

	// Emit service time distribution (µs). The p95 is the send-jitter
	// bound: no frame can start later than one service time behind its
	// timer because of another stream's lock.
	EmitP50Micros float64 `json:"emit_p50_us"`
	EmitP95Micros float64 `json:"emit_p95_us"`
	EmitMaxMicros float64 `json:"emit_max_us"`

	// Whole-run control-plane lock pressure.
	LockAcqsTotal  int64 `json:"lock_acqs_total"`
	LockHeldMicros int64 `json:"lock_held_us"`

	// Frame-span emit→wire hop (µs), from the 1-in-SpanSampleEvery sampled
	// frames. Zero when DisableObs.
	SpanSampleEvery int     `json:"span_sample_every"`
	SpanFrames      int64   `json:"span_frames"`
	EmitToWireP50   float64 `json:"emit_to_wire_p50_us"`
	EmitToWireP95   float64 `json:"emit_to_wire_p95_us"`
	EmitToWireP99   float64 `json:"emit_to_wire_p99_us"`
	EmitToWireMax   float64 `json:"emit_to_wire_max_us"`

	// Shared-flow fan-out. Encodes count frames encoded+assembled once;
	// delivered counts frames × subscribers actually fanned out. Both are
	// restricted to the time-sensitive (audio/video) streams — the
	// sustained data plane — so still-image page loads don't blur the
	// one-encode-N-deliveries ratio. Without shared flows the two are
	// equal; with them, encodes stay flat as viewers of the same document
	// grow while delivered scales with the viewer count.
	SharedFlows        bool    `json:"shared_flows"`
	Docs               int     `json:"docs"`
	ZipfS              float64 `json:"zipf_s"`
	Flows              int     `json:"flows"`
	MaxFlowSubscribers int     `json:"max_flow_subscribers"`
	PacedEncodes       int64   `json:"paced_encodes"`
	PacedDelivered     int64   `json:"paced_delivered"`
	PumpEncodes        int64   `json:"pump_encodes"`
	PumpDelivered      int64   `json:"pump_delivered"`
	EncodesPerSec      float64 `json:"encodes_per_sec"`
	DeliveredPerSec    float64 `json:"delivered_per_sec"`
}

// sinkNet is the harness transport: a netsim.Net whose Send costs two atomic
// adds. Packets addressed to a registered listener (the server's control
// port) are delivered synchronously; everything else — the media flood — is
// only counted, so the measurement isolates the server's emit path from any
// simulated network behavior.
type sinkNet struct {
	mu       sync.RWMutex
	handlers map[netsim.Addr]netsim.Handler
	packets  atomic.Int64
	bytes    atomic.Int64
}

func newSinkNet() *sinkNet {
	return &sinkNet{handlers: map[netsim.Addr]netsim.Handler{}}
}

func (n *sinkNet) Listen(a netsim.Addr, h netsim.Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h == nil {
		delete(n.handlers, a)
	} else {
		n.handlers[a] = h
	}
	return nil
}

func (n *sinkNet) Send(p netsim.Packet) error {
	n.packets.Add(1)
	n.bytes.Add(int64(len(p.Payload)))
	n.mu.RLock()
	h := n.handlers[p.To]
	n.mu.RUnlock()
	if h != nil {
		h(p)
	}
	return nil
}

// SendMulti implements netsim.MultiSender so the shared-flow fan-out path is
// exercised end to end: the packet is assembled once and each destination
// costs only the counting here — no per-destination copy, no allocation.
func (n *sinkNet) SendMulti(p netsim.Packet, tos []netsim.Addr) error {
	n.packets.Add(int64(len(tos)))
	n.bytes.Add(int64(len(p.Payload)) * int64(len(tos)))
	return nil
}

// RunDataPlaneLoad stands up a server with cfg.Sessions sessions playing a
// two-slide lesson (per slide: one still image plus a synchronized audio and
// video pair, so every session carries multiple concurrent streams) and
// measures the data plane as described above.
func RunDataPlaneLoad(cfg DataPlaneConfig) (DataPlaneResult, error) {
	cfg.fill()
	var res DataPlaneResult
	res.Sessions = cfg.Sessions
	res.SharedFlows = cfg.SharedFlows
	res.Docs = cfg.Docs
	res.ZipfS = cfg.ZipfS

	clk := clock.NewSim()
	net := newSinkNet()
	users := auth.NewDB()
	if err := users.Subscribe(auth.User{
		Name: "bench", Password: "pw", Email: "bench@load", Class: qos.Standard,
	}, clk.Now()); err != nil {
		return res, err
	}
	db := NewDatabase()
	docName := func(k int) string {
		if cfg.Docs == 1 {
			return "lesson"
		}
		return fmt.Sprintf("lesson%d", k)
	}
	for k := 0; k < cfg.Docs; k++ {
		if err := db.Put(docName(k), hml.LessonSource("bench", 2, time.Minute), "load doc"); err != nil {
			return res, err
		}
	}
	// Zipf popularity: document k gets weight (k+1)^-s; session i lands on
	// the document whose cumulative weight first covers (i+0.5)/Sessions.
	// Deterministic inverse-CDF spread — no RNG, exactly reproducible.
	docOf := make([]int, cfg.Sessions)
	if cfg.Docs > 1 {
		weights := make([]float64, cfg.Docs)
		var total float64
		for k := range weights {
			weights[k] = math.Pow(float64(k+1), -cfg.ZipfS)
			total += weights[k]
		}
		for i := range docOf {
			u := (float64(i) + 0.5) / float64(cfg.Sessions) * total
			acc := 0.0
			docOf[i] = cfg.Docs - 1
			for k, w := range weights {
				acc += w
				if u <= acc {
					docOf[i] = k
					break
				}
			}
		}
	}
	// Telemetry is ON by default: the alloc and lock gates below prove the
	// sampled span instrumentation rides the emit path for free.
	var scope *obs.Scope
	if !cfg.DisableObs {
		scope = obs.NewScope(clk)
	}
	srv, err := New("srv", clk, net, users, db, Options{
		Capacity:    1e12, // admission must not cap the fleet
		Obs:         scope,
		SharedFlows: cfg.SharedFlows,
	})
	if err != nil {
		return res, err
	}

	// Stand up the sessions through the real control plane.
	for i := 0; i < cfg.Sessions; i++ {
		client := netsim.MakeAddr(fmt.Sprintf("load%d", i), 6000)
		net.Send(netsim.Packet{
			From: client, To: netsim.MakeAddr("srv", ControlPort),
			Payload:  protocol.MustEncode(protocol.MsgConnect, protocol.Connect{User: "bench", Password: "pw"}),
			Reliable: true,
		})
		net.Send(netsim.Packet{
			From: client, To: netsim.MakeAddr("srv", ControlPort),
			Payload:  protocol.MustEncode(protocol.MsgDocRequest, protocol.DocRequest{Name: docName(docOf[i])}),
			Reliable: true,
		})
	}
	if got := srv.Sessions(); got != cfg.Sessions {
		return res, fmt.Errorf("dataplane: %d sessions stood up, want %d", got, cfg.Sessions)
	}

	// Collect the senders.
	var all []*sender
	for i := range srv.shards {
		sh := &srv.shards[i]
		sh.mu.Lock()
		for _, sess := range sh.sessions {
			all = append(all, sess.senders...)
		}
		sh.mu.Unlock()
	}
	res.Senders = len(all)

	// Collect the distinct flows carrying those senders: a registered flow
	// serves all of its subscribers, every other sender has a private flow
	// of one.
	var flows []*flow
	seen := map[*flow]bool{}
	for _, snd := range all {
		if fl := snd.fl.Load(); !seen[fl] {
			seen[fl] = true
			flows = append(flows, fl)
		}
	}
	for _, st := range srv.FlowStats() {
		res.Flows++
		if st.Subscribers > res.MaxFlowSubscribers {
			res.MaxFlowSubscribers = st.Subscribers
		}
	}

	sumStats := func() (frames, packets int64, bytes int64) {
		for _, snd := range all {
			st := snd.stats()
			frames += int64(st.frames)
			packets += int64(st.packets)
			bytes += st.bytes
		}
		return
	}
	// sumFlows counts time-sensitive frames encoded+assembled — one per
	// flow frame regardless of subscriber count — and the same frames once
	// per subscriber sent. The two are equal when nothing is shared. The
	// stills finish after their single frame, so the sustained load is the
	// time-sensitive streams.
	sumFlows := func() (encodes, delivered int64) {
		for _, fl := range flows {
			if fl.stream.Type.TimeSensitive() {
				fl.mu.Lock()
				encodes += int64(fl.framesSent)
				delivered += fl.delivered
				fl.mu.Unlock()
			}
		}
		return
	}

	// memDelta samples the process-wide allocation counters around fn. The
	// harness is the only thing running, so the delta is the phase's own
	// footprint (plus the constant cost of the sampling itself, amortized
	// over thousands of frames).
	memDelta := func(fn func()) (mallocs, bytes int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc)
	}

	// Paced phase: advance the virtual clock and let the flow-scenario
	// timers emit. Everything that fires in this window is a flow timer,
	// so the lock-meter delta is exactly the emit path's shard-lock footprint —
	// and the allocation delta is the pacing loop's footprint.
	preFrames, _, _ := sumStats()
	preEncodes, preDelivered := sumFlows()
	preAcqs, _ := srv.LockStats()
	pacedMallocs, pacedBytes := memDelta(func() { clk.Advance(cfg.PacedWindow) })
	postAcqs, _ := srv.LockStats()
	pacedFrames, _, _ := sumStats()
	res.PacedFrames = pacedFrames - preFrames
	res.PacedLockAcqs = postAcqs - preAcqs
	postEncodes, postDelivered := sumFlows()
	res.PacedEncodes = postEncodes - preEncodes
	res.PacedDelivered = postDelivered - preDelivered
	if res.PacedFrames > 0 {
		// PacedFrames already counts per-subscriber deliveries (a sender's
		// stats are its share of its flow), so this IS allocations per
		// delivered frame — the fan-out gate divides the one shared
		// assembly across every subscriber it reached.
		res.PacedAllocsPerFrame = float64(pacedMallocs) / float64(res.PacedFrames)
		res.PacedAllocBytesPerFrame = float64(pacedBytes) / float64(res.PacedFrames)
	}

	// Pump phase: every flow emits back-to-back from its own goroutine. A
	// registered flow pumps once for all of its subscribers — that's the
	// point.
	pumpStartFrames, pumpStartPackets, pumpStartBytes := sumStats()
	pumpStartEncodes, pumpStartDelivered := sumFlows()
	times := make([][]time.Duration, len(flows))
	var wg sync.WaitGroup
	var elapsed time.Duration
	pumpMallocs, pumpAllocBytes := memDelta(func() {
		t0 := time.Now()
		for i, fl := range flows {
			wg.Add(1)
			go func(i int, fl *flow) {
				defer wg.Done()
				times[i] = fl.pump(cfg.FramesPerSender)
			}(i, fl)
		}
		wg.Wait()
		elapsed = time.Since(t0)
	})
	pumpFrames, pumpPackets, pumpBytes := sumStats()
	res.PumpFrames = pumpFrames - pumpStartFrames
	res.PumpPackets = pumpPackets - pumpStartPackets
	res.PumpBytes = pumpBytes - pumpStartBytes
	pumpEncodes, pumpDelivered := sumFlows()
	res.PumpEncodes = pumpEncodes - pumpStartEncodes
	res.PumpDelivered = pumpDelivered - pumpStartDelivered
	res.ElapsedMicros = elapsed.Microseconds()
	if elapsed > 0 {
		res.FramesPerSec = float64(res.PumpFrames) / elapsed.Seconds()
		res.EncodesPerSec = float64(res.PumpEncodes) / elapsed.Seconds()
		res.DeliveredPerSec = float64(res.PumpDelivered) / elapsed.Seconds()
	}
	if res.PumpFrames > 0 {
		res.PumpAllocsPerFrame = float64(pumpMallocs) / float64(res.PumpFrames)
		res.PumpAllocBytesPerFrame = float64(pumpAllocBytes) / float64(res.PumpFrames)
	}

	var flat []time.Duration
	for _, ts := range times {
		flat = append(flat, ts...)
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i] < flat[j] })
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	if n := len(flat); n > 0 {
		res.EmitP50Micros = us(flat[n/2])
		res.EmitP95Micros = us(flat[n*95/100])
		res.EmitMaxMicros = us(flat[n-1])
	}

	acqs, held := srv.LockStats()
	res.LockAcqsTotal = acqs
	res.LockHeldMicros = held.Microseconds()

	if scope != nil {
		h := scope.FrameSpans().EmitToWire()
		res.SpanSampleEvery = int(scope.FrameSpans().SampleEvery())
		res.SpanFrames = h.N()
		res.EmitToWireP50 = us(h.P50())
		res.EmitToWireP95 = us(h.P95())
		res.EmitToWireP99 = us(h.P99())
		res.EmitToWireMax = us(h.Max())
	}
	return res, nil
}
