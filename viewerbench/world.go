package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/playout"
	"repro/internal/qos"
	"repro/internal/scenario"
	"repro/internal/server"
)

// clientCtrlPort is every browser's control port.
const clientCtrlPort = 6000

// lipSyncMS is the audio/video skew a viewer tolerates (±80 ms, the
// lip-sync limit the playout layer's skew control works to).
const lipSyncMS = 80

// Session script timing, in virtual time.
const (
	pollStep     = 10 * time.Millisecond  // connect / browse progress checks
	endPollStep  = 100 * time.Millisecond // presentation-end checks
	stepTimeout  = 10 * time.Second       // a connect or browse step that takes longer fails
	lessonGrace  = 15 * time.Second       // a presentation this far past its length fails
	runSlice     = 250 * time.Millisecond // granularity of the timed run loop
	runawayLimit = 5 * time.Minute        // virtual time after which the episode gives up
)

// setupTimes is the wall time of each step of building a world.
type setupTimes struct {
	store, servers, browsers time.Duration
}

func (s setupTimes) total() time.Duration { return s.store + s.servers + s.browsers }

// world is one simulated Hermes campus: servers and browsers on one virtual
// clock and one simulated network. With a tracer, the components see the
// probe clock and network instead of the raw ones.
type world struct {
	p       *plan
	clk     *clock.Virtual
	net     *netsim.Network
	servers []*server.Server
	byName  map[string]*server.Server
	sess    []*sessState
	tr      *tracer
	scope   *obs.Scope

	// verifyBytes compares every reassembled frame with its synthesis;
	// without it only the payload tag ("stream#index|") is checked.
	verifyBytes bool
	payloadBuf  []byte

	open     int // sessions not yet done
	out      outcome
	failures []string
}

// buildWorld stores the lessons, enrolls the students, and creates the
// servers and one browser per session.
func buildWorld(p *plan, traced bool) (*world, error) {
	w := &world{p: p, clk: clock.NewSim(), byName: map[string]*server.Server{}}
	w.net = netsim.New(w.clk, p.seed+1)
	w.net.SetDefaultLink(p.link)
	for i, s := range p.sessions {
		if p.congestion != nil && p.congested[i] {
			ph := *p.congestion
			ph.Start = s.at + p.congestAfter
			w.net.AddPhase(p.servers[s.server].name, s.host, ph)
		}
	}
	var cclk clock.Clock = w.clk
	var cnet netsim.Net = w.net
	if traced {
		w.tr = newTracer()
		w.verifyBytes = true
		names := map[string]bool{}
		for _, s := range p.servers {
			names[s.name] = true
		}
		cclk = &probeClock{inner: w.clk, tr: w.tr}
		cnet = newProbeNet(w.net, w.tr, names)
		w.scope = obs.NewScope(w.clk)
	}

	t0 := time.Now()
	users := auth.NewDB()
	for _, s := range p.sessions {
		if err := users.Subscribe(auth.User{
			Name: s.user, Password: "pw", RealName: "Campus Student",
			Email: s.user + "@campus.gr", Class: qos.Standard,
		}, w.clk.Now()); err != nil {
			return nil, fmt.Errorf("enroll %s: %w", s.user, err)
		}
	}
	dbs := make([]*server.Database, len(p.servers))
	for i := range p.servers {
		dbs[i] = server.NewDatabase()
		for _, l := range p.lessons {
			if err := dbs[i].Put(l.name, l.src, "campus lesson"); err != nil {
				return nil, fmt.Errorf("store %s: %w", l.name, err)
			}
		}
	}
	t1 := time.Now()
	for i, spec := range p.servers {
		opts := spec.opts
		opts.Obs = w.scope
		srv, err := server.New(spec.name, cclk, cnet, users, dbs[i], opts)
		if err != nil {
			return nil, err
		}
		w.servers = append(w.servers, srv)
		w.byName[spec.name] = srv
	}
	for _, srv := range w.servers {
		var peers []string
		for _, spec := range p.servers {
			if spec.name != srv.Name {
				peers = append(peers, spec.name)
			}
		}
		srv.SetPeers(peers)
	}
	t2 := time.Now()
	for i := range p.sessions {
		s := &sessState{w: w, spec: &p.sessions[i], lesson: p.sessions[i].lesson, left: -1}
		c, err := client.New(s.spec.host, cclk, cnet, client.Options{
			CtrlPort: clientCtrlPort,
			User:     s.spec.user, Password: "pw", Class: qos.Standard,
			PeakRate: 1_500_000, MinRate: 500_000,
			OnFrame: s.onFrame,
		})
		if err != nil {
			return nil, err
		}
		s.c = c
		w.sess = append(w.sess, s)
	}
	w.out.setup = setupTimes{store: t1.Sub(t0), servers: t2.Sub(t1), browsers: time.Since(t2)}
	return w, nil
}

// fail records a failed output check; any failure marks the run failed.
func (w *world) fail(format string, args ...any) {
	if len(w.failures) < 20 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// after schedules a session-script step on the raw clock. In a traced
// world the step is a script span, so the client API calls it makes are
// attributed.
func (w *world) after(d time.Duration, fn func()) {
	if w.tr == nil {
		w.clk.AfterFunc(d, fn)
		return
	}
	tr := w.tr
	w.clk.AfterFunc(d, func() {
		tr.begin(spScript)
		fn()
		tr.end()
	})
}

// run plays the workload: seeded open-loop arrivals, every session driven
// to its end, then a drain and the teardown checks. The timed phase runs
// from the first event until every session has ended; the live heap is
// sampled (untimed) at the end of the arrival window.
func (w *world) run() *outcome {
	epoch := w.clk.Now()
	lastArrival := time.Duration(0)
	for _, s := range w.sess {
		s := s
		due := epoch.Add(s.spec.at)
		if s.spec.at > lastArrival {
			lastArrival = s.spec.at
		}
		w.open++
		w.after(s.spec.at, func() {
			if now := w.clk.Now(); !now.Equal(due) {
				w.fail("arrival of %s fired at %v, due %v", s.spec.host, now.Sub(epoch), s.spec.at)
			}
			s.arrive()
		})
	}

	runtime.GC()
	var m0, mA, mB, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fired0 := w.clk.FiredCount()
	start := time.Now()
	w.clk.RunFor(lastArrival)
	wall := time.Since(start)

	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so only live state is counted.
	runtime.ReadMemStats(&mA)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&mB)
	w.out.liveHeap = mB.HeapAlloc

	start = time.Now()
	for w.open > 0 && w.clk.Now().Sub(epoch) < runawayLimit {
		w.clk.RunFor(runSlice)
	}
	wall += time.Since(start)
	runtime.ReadMemStats(&m1)
	w.out.fired = w.clk.FiredCount() - fired0
	w.out.digest = w.net.DeliveryDigest()
	w.out.wall = wall
	w.out.mallocs = m1.Mallocs - m0.Mallocs
	w.out.gcCount = int(m1.NumGC-m0.NumGC) - int(mB.NumGC-mA.NumGC)
	w.out.gcPause = time.Duration((m1.PauseTotalNs - m0.PauseTotalNs) - (mB.PauseTotalNs - mA.PauseTotalNs))
	if w.tr != nil {
		w.out.ledger = w.tr.snapshot()
		w.out.ledger.wall = wall.Nanoseconds()
		w.out.ledger.fired = w.out.fired
		w.collectLayers()
	}
	if w.open > 0 {
		w.fail("%d sessions still open after %v of virtual time", w.open, runawayLimit)
	}

	w.clk.RunFor(w.p.drain)
	w.teardownChecks()
	w.out.failures = w.failures
	// A copy: a pointer into w would keep the whole world alive.
	o := w.out
	return &o
}

// collectLayers reads the per-layer counters a traced run reports from the
// network and servers, before the drain.
func (w *world) collectLayers() {
	o := &w.out
	o.netSent, _, o.netDropped, o.netBytes = w.net.Totals()
	var delays []float64
	for _, s := range w.p.sessions {
		for _, srv := range w.p.servers {
			st := w.net.Stats(srv.name, s.host)
			delays = append(delays, st.Delays.Values()...)
		}
	}
	o.delayP99 = percentile(delays, 99)
	for _, srv := range w.servers {
		acqs, _ := srv.LockStats()
		o.lockAcqs += acqs
		o.admDecisions += srv.Admission().Decisions()
		if h := srv.LockWaitHist(); h != nil && h.P99() > o.lockWaitP99 {
			o.lockWaitP99 = h.P99()
		}
	}
	o.encodes = w.scope.Counter("server_media_frames_sent").Value()
	o.delivered = w.scope.Counter("server_media_frames_delivered").Value()
}

// teardownChecks runs once every session has ended and the drain has let
// suspended sessions expire: nothing may stay reserved, resident or in
// flight.
func (w *world) teardownChecks() {
	for _, srv := range w.servers {
		if r := srv.Admission().Reserved(); r != 0 {
			w.fail("%s: %.3f b/s still reserved after teardown", srv.Name, r)
		}
		if n := srv.Sessions(); n != 0 {
			w.fail("%s: %d sessions resident after teardown", srv.Name, n)
		}
		if fs := srv.FlowStats(); len(fs) != 0 {
			w.fail("%s: %d shared flows alive after teardown", srv.Name, len(fs))
		}
	}
	sent, delivered, dropped, _ := w.net.Totals()
	if sent != delivered+dropped {
		w.fail("network: sent %d != delivered %d + dropped %d after drain", sent, delivered, dropped)
	}
}

// sessState drives one session through the client's public API.
type sessState struct {
	w    *world
	spec *sessionSpec
	c    *client.Client
	// lesson is the lesson the browser is viewing; left is the one it
	// navigated away from by hyperlink (-1 when none).
	lesson, left int
	// gen invalidates stale poll chains after an act restarts the wait.
	gen int

	stepAt    time.Time // start of the current connect / browse step
	reqAt     time.Time // the latest doc request (initial, reload or link)
	firstReq  time.Time
	harvested *playout.Player
	started   bool // the initial presentation's startup was measured
	plays     int
	done      bool
}

func (s *sessState) serverName() string { return s.w.p.servers[s.spec.server].name }

func (s *sessState) arrive() {
	w := s.w
	for _, srv := range w.servers {
		if u := srv.Admission().Utilization(); u > w.out.utilPeak {
			w.out.utilPeak = u
		}
	}
	s.stepAt = w.clk.Now()
	s.c.Connect(s.serverName())
	w.after(pollStep, s.pollConnect)
}

// waitStep re-polls fn, failing the session once the step times out.
func (s *sessState) waitStep(what string, fn func()) {
	if s.w.clk.Now().Sub(s.stepAt) > stepTimeout {
		s.end(what + " timed out: " + s.c.LastError())
		return
	}
	s.w.after(pollStep, fn)
}

func (s *sessState) pollConnect() {
	lc := s.c.LastConnect()
	switch {
	case lc != nil && lc.OK:
		s.browse()
	case lc != nil && !lc.Redirect:
		s.end("connect refused: " + lc.Reason)
	default: // no answer yet, or following a redirect
		s.waitStep("connect", s.pollConnect)
	}
}

func (s *sessState) browse() {
	if !s.spec.browse {
		s.request()
		return
	}
	s.stepAt = s.w.clk.Now()
	s.c.RequestTopics()
	s.w.after(pollStep, s.pollTopics)
}

func (s *sessState) pollTopics() {
	if s.c.Topics() == nil {
		s.waitStep("topic list", s.pollTopics)
		return
	}
	if !s.spec.search {
		s.request()
		return
	}
	s.stepAt = s.w.clk.Now()
	s.c.Search("campus")
	s.w.after(pollStep, s.pollSearch)
}

func (s *sessState) pollSearch() {
	if hits, done := s.c.SearchResults(); !done || len(hits) == 0 {
		s.waitStep("search", s.pollSearch)
		return
	}
	s.request()
}

func (s *sessState) request() {
	now := s.w.clk.Now()
	s.reqAt, s.firstReq = now, now
	s.c.RequestDoc(s.w.p.lessons[s.lesson].name)
	if s.spec.act != actNone {
		s.w.after(s.spec.actAfter, s.act)
	}
	s.awaitEnd()
}

// act performs the session's seeded interaction with its presentation.
func (s *sessState) act() {
	if s.done {
		return
	}
	w := s.w
	switch s.spec.act {
	case actPause:
		s.c.Pause()
		w.after(pauseFor, func() {
			if !s.done {
				s.c.Resume()
			}
		})
		return
	case actReload:
		s.harvest(false)
		s.c.Reload()
	case actLink:
		s.harvest(false)
		from := s.c.CurrentServer()
		to := w.p.servers[0].name
		if to == from {
			to = w.p.servers[1].name
		}
		s.left, s.lesson = s.lesson, s.spec.linkLesson
		s.c.FollowLink(scenario.Link{Target: w.p.lessons[s.lesson].name, Host: to})
	}
	s.reqAt = w.clk.Now()
	s.awaitEnd()
}

// awaitEnd starts a fresh chain of presentation-end polls.
func (s *sessState) awaitEnd() {
	s.gen++
	gen := s.gen
	length := s.w.p.lessons[s.lesson].length
	var poll func()
	poll = func() {
		if gen != s.gen || s.done {
			return
		}
		if p := s.c.Player(); p != nil && p != s.harvested && p.Finished() {
			s.harvest(true)
			s.end("")
			return
		}
		if s.w.clk.Now().Sub(s.reqAt) > length+lessonGrace {
			s.end(fmt.Sprintf("presentation of %s did not finish", s.w.p.lessons[s.lesson].name))
			return
		}
		s.w.after(endPollStep, poll)
	}
	s.w.after(length+time.Second, poll)
}

// end closes the session: a non-empty why marks it failed.
func (s *sessState) end(why string) {
	w := s.w
	s.done = true
	w.open--
	s.connectLatencies()
	if why == "" && s.plays == 0 {
		why = "no frame presented"
	}
	if why != "" {
		// Every workload sizes its servers above peak demand, so a failed
		// session is a wrong output, not load shedding.
		w.out.failed++
		w.fail("%s: %s", s.spec.host, why)
	} else {
		w.out.completed++
	}
	s.c.Disconnect()
}

// connectLatencies reads the browser's event log: each connect episode runs
// from "connect →" to "connected to", redirects included.
func (s *sessState) connectLatencies() {
	var open time.Time
	for _, ev := range s.c.Events() {
		switch {
		case strings.HasPrefix(ev.What, "connect → "):
			if open.IsZero() {
				open = ev.At
			}
		case strings.HasPrefix(ev.What, "connected to "):
			if !open.IsZero() {
				s.w.out.connectMS = append(s.w.out.connectMS, ms(ev.At.Sub(open)))
				open = time.Time{}
			}
		case strings.HasPrefix(ev.What, "connection rejected"),
			strings.HasPrefix(ev.What, "redirect abandoned"),
			strings.HasPrefix(ev.What, "connect timed out"):
			open = time.Time{}
		}
	}
}

// harvest folds the current presentation's playout report, buffer
// counters and server-side grading into the outcome. finished says the
// presentation ran to its end; an interrupted one only counts the ticks it
// had.
func (s *sessState) harvest(finished bool) {
	p := s.c.Player()
	if p == nil || p == s.harvested {
		return
	}
	s.harvested = p
	w, o := s.w, &s.w.out
	ls := &w.p.lessons[s.lesson]
	rep := p.Report()
	for id, sr := range rep.Streams {
		if sr.Plays+sr.Gaps > sr.Expected {
			w.fail("%s stream %s: plays %d + gaps %d > expected %d", s.spec.host, id, sr.Plays, sr.Gaps, sr.Expected)
		}
		s.plays += sr.Plays
		o.plays += sr.Plays
		o.holds += sr.Holds
		if !isTimed(ls, id) {
			continue
		}
		o.gaps += sr.Gaps
		if finished {
			o.expected += sr.Expected
		} else {
			o.expected += sr.Plays + sr.Gaps
		}
	}
	for _, smp := range rep.Skew {
		for _, v := range smp.Values() {
			o.skewMS = append(o.skewMS, v)
			if math.Abs(v) <= lipSyncMS {
				o.inSync++
			}
		}
	}
	if bs := s.c.Buffers(); bs != nil {
		for _, b := range bs.All() {
			st := b.Stats()
			o.underflows += st.Underflows
			o.dups += st.Duplicated
			o.bufDrops += st.Dropped
			o.stale += st.Stale
		}
	}
	disp := s.c.Display()
	if !s.started && disp != nil {
		s.started = true
		s.startup(disp)
	}
	if w.tr != nil && disp != nil {
		for _, ev := range disp.Events() {
			if ev.Kind == playout.EvPlay {
				o.latenessMS = append(o.latenessMS, ms(ev.Lateness))
			}
		}
	}
	s.grading(ls)
}

func isTimed(ls *lessonSpec, id string) bool {
	for _, t := range ls.timed {
		if t == id {
			return true
		}
	}
	return false
}

// startup records the virtual time from the first doc request to the first
// presented frame: the presentation's start instant from the browser's
// event log plus the first play's presentation-relative time.
func (s *sessState) startup(disp *playout.Display) {
	var startedAt time.Time
	for _, ev := range s.c.Events() {
		if ev.What == "presentation started" && !ev.At.Before(s.firstReq) {
			startedAt = ev.At
			break
		}
	}
	if startedAt.IsZero() {
		return
	}
	for _, ev := range disp.Events() {
		if ev.Kind == playout.EvPlay {
			s.w.out.startupMS = append(s.w.out.startupMS, ms(startedAt.Sub(s.firstReq)+ev.At))
			return
		}
	}
}

// grading reads the serving manager's quality-level series: time below
// the top level (level > 0) over the time since the doc request, for the
// lesson's time-sensitive streams.
func (s *sessState) grading(ls *lessonSpec) {
	srv := s.w.byName[s.c.CurrentServer()]
	if srv == nil {
		return
	}
	mgr := srv.QoSManager(netsim.MakeAddr(s.spec.host, clientCtrlPort))
	if mgr == nil {
		return
	}
	o := &s.w.out
	o.qosActions += len(mgr.Actions())
	end := s.w.clk.Now().Sub(s.reqAt)
	for _, id := range ls.timed {
		ser := mgr.LevelSeries(id)
		if ser == nil {
			continue
		}
		pts := ser.Points()
		if len(pts) == 0 || pts[0].T >= end {
			continue
		}
		o.streamTime += end - pts[0].T
		for i, pt := range pts {
			next := end
			if i+1 < len(pts) && pts[i+1].T < end {
				next = pts[i+1].T
			}
			if pt.V > 0 && next > pt.T {
				o.degraded += next - pt.T
			}
		}
	}
}

// onFrame checks every reassembled frame: it must belong to a lesson this
// browser asked for (no crosstalk from other viewers' flows) and carry the
// synthesized payload of its stream and index. Frames of the lesson the
// browser left by hyperlink are not crosstalk but are counted: they are
// reassembled for a presentation that no longer exists. The payload is
// borrowed for the call.
func (s *sessState) onFrame(id string, hdr media.FrameHeader, payload []byte) {
	w := s.w
	w.out.framesCompleted++
	if !w.p.lessons[s.lesson].streams[id] {
		if s.left < 0 || !w.p.lessons[s.left].streams[id] {
			w.fail("%s viewing %s received a frame of stream %s", s.spec.host, w.p.lessons[s.lesson].name, id)
			return
		}
		w.out.staleFrames++
	}
	if w.verifyBytes {
		w.payloadBuf = media.AppendPayload(w.payloadBuf[:0], id, int(hdr.Index), int(hdr.FrameSize))
		if !bytes.Equal(payload, w.payloadBuf) {
			w.fail("%s stream %s frame %d: payload differs from its synthesis", s.spec.host, id, hdr.Index)
		}
		return
	}
	tag := append(w.payloadBuf[:0], id...)
	tag = append(tag, '#')
	tag = strconv.AppendInt(tag, int64(hdr.Index), 10)
	tag = append(tag, '|')
	w.payloadBuf = tag
	if len(tag) > len(payload) {
		tag = tag[:len(payload)]
	}
	if len(payload) != int(hdr.FrameSize) || !bytes.HasPrefix(payload, tag) {
		w.fail("%s stream %s frame %d: payload tag or size wrong", s.spec.host, id, hdr.Index)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
