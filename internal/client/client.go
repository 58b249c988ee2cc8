// Package client implements the Hermes browser core: connection management
// with the application state machine, scenario preprocessing into the E_i
// playout structures, one buffer handler per parallel media connection,
// media stream handlers that reassemble RTP fragments, the presentation
// handlers (a playout.Player rendering to a Display trace), the Client QoS
// Manager with its periodic feedback reports, navigation history, and the
// interactive operations (pause, resume, reload, disable media, annotate).
package client

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/playout"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/stats"
)

// Options tunes the browser.
type Options struct {
	// CtrlPort is the client's control port.
	CtrlPort int
	// MediaPortBase is the first port used for parallel media
	// connections.
	MediaPortBase int
	// Window is the media time window per buffer; zero computes it from
	// the announced frame interval and JitterBudget.
	Window time.Duration
	// JitterBudget is the delay-variation allowance used when computing
	// windows (the "tolerance to network delays" of the statistical
	// window calculation).
	JitterBudget time.Duration
	// WindowSafety is the safety multiplier of the window calculation.
	WindowSafety float64
	// MaxInitialDelay caps the deliberate presentation start delay.
	MaxInitialDelay time.Duration
	// FeedbackInterval spaces the QoS feedback reports.
	FeedbackInterval time.Duration
	// Playout tunes the presentation scheduler.
	Playout playout.Options
	// AutoFollowLinks makes the browser follow timed links automatically.
	AutoFollowLinks bool
	// User credentials and contract.
	User     string
	Password string
	Class    qos.PricingClass
	// PeakRate/MinRate describe the connection load for admission.
	PeakRate float64
	MinRate  float64
	// FloorLevel is the worst quality level the user accepts.
	FloorLevel int
	// HeartbeatInterval spaces the session heartbeats probing server
	// liveness.
	HeartbeatInterval time.Duration
	// LivenessMisses is how many consecutive unanswered heartbeats declare
	// the server dead.
	LivenessMisses int
	// RetryTimeout is the initial reply timeout of tracked control
	// requests; it doubles on each retransmission up to RetryBackoffCap.
	RetryTimeout time.Duration
	// RetryBackoffCap bounds the exponential retransmission backoff.
	RetryBackoffCap time.Duration
	// RetryAttempts bounds retransmissions of requests without an explicit
	// deadline.
	RetryAttempts int
	// MaxRedirectHops bounds how many admission redirects the client follows
	// in one connect episode before giving up.
	MaxRedirectHops int
	// Peers seeds the failover/redirect replica set before the first
	// successful connect advertises one (the hermes -peers flag).
	Peers []string
	// DisableHeartbeat turns the liveness probing off (for experiments
	// isolating the control plane).
	DisableHeartbeat bool
	// Obs, when set, threads telemetry through the browser's buffers and
	// playout scheduler and records session lifecycle events.
	Obs *obs.Scope
	// OnFrame, when set, observes every fully reassembled media frame with
	// its payload bytes (integrity tests hook it). The payload slice is
	// borrowed pooled scratch: it is valid only for the duration of the
	// call, and the callback runs under the client's internal lock, so it
	// must copy what it keeps and must not call back into the client.
	OnFrame func(streamID string, hdr media.FrameHeader, payload []byte)
}

func (o *Options) fill() {
	if o.CtrlPort <= 0 {
		o.CtrlPort = 6000
	}
	if o.MediaPortBase <= 0 {
		o.MediaPortBase = 7000
	}
	if o.JitterBudget <= 0 {
		o.JitterBudget = 100 * time.Millisecond
	}
	if o.WindowSafety <= 0 {
		o.WindowSafety = 2
	}
	if o.MaxInitialDelay <= 0 {
		o.MaxInitialDelay = 5 * time.Second
	}
	if o.FeedbackInterval <= 0 {
		o.FeedbackInterval = time.Second
	}
	if o.PeakRate <= 0 {
		o.PeakRate = 2_000_000
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.LivenessMisses <= 0 {
		o.LivenessMisses = 3
	}
	if o.RetryTimeout <= 0 {
		o.RetryTimeout = 750 * time.Millisecond
	}
	if o.RetryBackoffCap <= 0 {
		o.RetryBackoffCap = 4 * time.Second
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = 5
	}
	if o.MaxRedirectHops <= 0 {
		o.MaxRedirectHops = 3
	}
}

// Event is a coarse browser lifecycle notification for tests and examples.
type Event struct {
	At   time.Time
	What string
}

// Client is one Hermes browser instance on the simulated network.
type Client struct {
	mu sync.Mutex

	// Host is the client's host name.
	Host string

	clk  clock.Clock
	net  netsim.Net
	opts Options

	// spans and hCtrlRTT are resolved once at New, like counters: spans
	// samples the wire→reassembled hop of 1-in-N media frames, hCtrlRTT
	// observes the first-send→reply round trip of tracked control requests.
	spans    *obs.FrameSpans
	hCtrlRTT *stats.DurationHistogram

	machines map[string]*protocol.Machine
	current  string // connected server host ("" when none)
	sessions map[string]string

	// presentation state
	sc         *scenario.Scenario
	sch        *scenario.Schedule
	bufs       *buffer.Set
	display    *playout.Display
	player     *playout.Player
	monitor    *qos.ClientMonitor
	streamInfo map[string]protocol.StreamAnnounce
	asm        map[uint32]map[uint32]*assembly
	asmFree    []*assembly // recycled assembly shells (their bufs are pooled separately)
	docName    string
	docHost    string // server the current document came from
	// userPaused remembers a user-requested pause across a liveness
	// suspend: recovery restores the paused presentation instead of
	// restarting playout (the server keeps the sender paused too).
	userPaused bool
	fillIDs    []string // stream buffers gating the deliberate initial delay
	stillIDs   []string // stills that must be present before the start
	docAt      time.Time
	startDelay time.Duration
	started    bool
	fillTimer  *clock.Timer
	endTimer   *clock.Timer
	fbTimer    *clock.Timer

	// results of the last control exchanges
	lastConnect   *protocol.ConnectResult
	lastSubscribe *protocol.SubscribeResult
	topics        []protocol.TopicInfo
	searchHits    []protocol.TopicInfo
	searchDone    bool
	annotations   *protocol.Annotations
	lastStats     *protocol.StatsResult
	lastError     string

	suspendTokens map[string]string
	history       []string
	events        []Event

	// Browser navigation stacks ("moving backward and forward in the list
	// of already viewed lessons", §6.2.3). Each entry records the document
	// and the server it lived on.
	backStack []navEntry
	fwdStack  []navEntry
	// navDirection classifies the in-flight request's effect on the
	// stacks: 0 new navigation, -1 back, +1 forward, 2 reload.
	navDirection int

	mediaPorts []netsim.Addr

	// pendingAfterSuspend runs once the suspend ack arrives (cross-server
	// navigation chains suspend → connect → request asynchronously);
	// pendingDoc is requested once the follow-up connect succeeds.
	pendingAfterSuspend func()
	pendingDoc          string

	// reliable control plane (reliable.go)
	nextReq uint32
	pending map[uint32]*pendingReq
	// peers/graceSecs are the replica set and suspend grace window the
	// server advertised on connect; they bound recovery and failover.
	peers     []string
	graceSecs int
	hbTimer   *clock.Timer
	hbAwait   bool
	hbMisses  int
	// recovering names the server currently being probed for session
	// recovery ("" when healthy); failedPeers tracks replicas that already
	// failed us during this failover episode.
	recovering      string
	recoverDeadline time.Time
	failedPeers     map[string]bool

	// Cluster episode state (cluster.go): admission-redirect following with
	// bounded hops, and the in-flight cross-server handoff.
	redirectHops  int
	redirectTried map[string]bool
	handoffFrom   string // source server of the in-flight handoff ("" none)
	handoffTicket *protocol.HandoffTicket
	handoffPeers  []string // replicas advertised with the handoff
	handoffStart  time.Time
	hHandoff      *stats.DurationHistogram // handoff_latency, resolved at New
}

// navEntry is one visited document in the navigation stacks.
type navEntry struct {
	Host string
	Name string
}

// asmPool recycles the frame-sized reassembly scratch buffers of every
// client's media receive path.
var asmPool buffer.Pool

// assembly collects one frame's fragments into pooled scratch. Fragment fi
// occupies bytes [fi×MTU, fi×MTU+len) of the frame, so arrival order does
// not matter, and the per-fragment data is copied out of the (borrowed,
// transport-owned) packet payload immediately.
type assembly struct {
	pb    *buffer.Buf // FrameSize bytes of pooled scratch
	got   []bool      // fragments seen; duplicate deliveries must not double-count
	have  uint16
	total uint16
	hdr   media.FrameHeader
	ts    uint32
	// sentAt is the wire stamp of the earliest fragment seen (zero when the
	// transport does not stamp); it anchors the wire→reassembled span.
	sentAt time.Time
}

// newAssemblyLocked takes an assembly shell off the free list (or makes one)
// and equips it with pooled scratch sized for the frame. Caller holds c.mu.
func (c *Client) newAssemblyLocked(hdr media.FrameHeader, ts uint32) *assembly {
	var a *assembly
	if n := len(c.asmFree); n > 0 {
		a = c.asmFree[n-1]
		c.asmFree[n-1] = nil
		c.asmFree = c.asmFree[:n-1]
	} else {
		a = &assembly{}
	}
	a.pb = asmPool.Get(int(hdr.FrameSize))
	if cap(a.got) < int(hdr.FragCount) {
		a.got = make([]bool, hdr.FragCount)
	} else {
		a.got = a.got[:hdr.FragCount]
		for i := range a.got {
			a.got[i] = false
		}
	}
	a.have = 0
	a.total = hdr.FragCount
	a.hdr = hdr
	a.ts = ts
	a.sentAt = time.Time{}
	return a
}

// freeAssemblyLocked returns the scratch to the pool and the shell to the
// free list. Caller holds c.mu and must not touch a afterwards.
func (c *Client) freeAssemblyLocked(a *assembly) {
	asmPool.Put(a.pb)
	a.pb = nil
	if len(c.asmFree) < 64 {
		c.asmFree = append(c.asmFree, a)
	}
}

// New creates a browser and registers its control listener. It fails when
// the network cannot bind the browser's control address (only possible on
// the live transport).
func New(host string, clk clock.Clock, net netsim.Net, opts Options) (*Client, error) {
	opts.fill()
	c := &Client{
		Host:          host,
		clk:           clk,
		net:           net,
		opts:          opts,
		machines:      map[string]*protocol.Machine{},
		sessions:      map[string]string{},
		suspendTokens: map[string]string{},
		pending:       map[uint32]*pendingReq{},
		failedPeers:   map[string]bool{},
		monitor:       qos.NewClientMonitor(clk, 0x1996),
	}
	c.spans = opts.Obs.FrameSpans()
	c.hCtrlRTT = opts.Obs.Histogram("client_ctrl_rtt")
	c.hHandoff = opts.Obs.Histogram("handoff_latency")
	c.peers = append([]string(nil), opts.Peers...)
	if err := net.Listen(c.ctrlAddr(), c.handleCtrl); err != nil {
		return nil, fmt.Errorf("client %s: %w", host, err)
	}
	return c, nil
}

func (c *Client) ctrlAddr() netsim.Addr { return netsim.MakeAddr(c.Host, c.opts.CtrlPort) }

func (c *Client) logEvent(what string) {
	c.events = append(c.events, Event{At: c.clk.Now(), What: what})
}

// Events returns the lifecycle log.
func (c *Client) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// machine returns (creating if needed) the per-server state machine.
func (c *Client) machine(host string) *protocol.Machine {
	m, ok := c.machines[host]
	if !ok {
		m = protocol.NewMachine()
		c.machines[host] = m
	}
	return m
}

// State returns the application state toward a server.
func (c *Client) State(host string) protocol.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.machine(host).State()
}

// CurrentServer returns the host currently connected ("" when none).
func (c *Client) CurrentServer() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.current
}

func (c *Client) send(host string, t protocol.MsgType, body interface{}) {
	c.net.Send(netsim.Packet{
		From:     c.ctrlAddr(),
		To:       netsim.MakeAddr(host, server.ControlPort),
		Payload:  protocol.MustEncode(t, body),
		Reliable: true,
	})
}

// Connect initiates a session with a server. A previous session's terminal
// state does not block a new one: the Figure 4 machine is per session, so a
// fresh machine is started when the old one reached disconnected.
func (c *Client) Connect(host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.connectLocked(host, false)
}

func (c *Client) connectLocked(host string, failover bool) {
	m := c.machine(host)
	if m.State() == protocol.StDisconnected {
		m = protocol.NewMachine()
		c.machines[host] = m
	}
	if m.State() == protocol.StSuspended {
		// Connecting toward a suspended session is a return: the resume
		// token rides along and InReturn fires on the server's answer.
		c.current = host
		c.lastConnect = nil
		c.logEvent("return to " + host)
		c.sendReqLocked(host, protocol.MsgConnect, protocol.Connect{
			User: c.opts.User, ResumeToken: c.suspendTokens[host],
		}, time.Time{}, func() { c.connectFailedLocked(host, failover) })
		return
	}
	if err := m.Apply(protocol.InConnect); err != nil {
		c.lastError = err.Error()
		return
	}
	c.current = host
	c.lastConnect = nil
	c.logEvent("connect → " + host)
	c.sendReqLocked(host, protocol.MsgConnect, protocol.Connect{
		User: c.opts.User, Password: c.opts.Password, Class: c.opts.Class,
		PeakRate: c.opts.PeakRate, MinRate: c.opts.MinRate,
		FloorLevel:  c.opts.FloorLevel,
		ResumeToken: c.suspendTokens[host],
		Failover:    failover,
	}, time.Time{}, func() { c.connectFailedLocked(host, failover) })
}

// connectFailedLocked unsticks a connect whose reply never arrived: the
// machine leaves Connecting instead of hanging there forever. During a
// failover the next untried replica is attempted.
func (c *Client) connectFailedLocked(host string, failover bool) {
	m := c.machine(host)
	if m.State() == protocol.StConnecting && m.Can(protocol.InAuthReject) {
		m.Apply(protocol.InAuthReject)
	}
	c.lastError = "connect timed out: " + host
	c.logEvent("connect timed out: " + host)
	if failover {
		c.failoverLocked(host)
	}
}

// Subscribe submits the subscription form to the current server; the
// browser adopts the form's credentials as its identity.
func (c *Client) Subscribe(form protocol.SubscriptionForm) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastSubscribe = nil
	c.opts.User = form.User
	c.opts.Password = form.Password
	c.sendReqLocked(c.current, protocol.MsgSubscribe, form, time.Time{}, nil)
}

// RequestTopics asks for the contents listing.
func (c *Client) RequestTopics() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.topics = nil
	c.sendReqLocked(c.current, protocol.MsgTopicList, protocol.TopicListRequest{}, time.Time{}, nil)
}

// Search launches a federated content search from the current server.
func (c *Client) Search(token string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.searchHits = nil
	c.searchDone = false
	c.sendReqLocked(c.current, protocol.MsgSearch, protocol.Search{Token: token},
		time.Time{}, func() { c.searchDone = true })
}

// RequestDoc asks the current server for a document.
func (c *Client) RequestDoc(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requestDocLocked(name)
}

func (c *Client) requestDocLocked(name string) {
	m := c.machine(c.current)
	if m.State() == protocol.StViewing || m.State() == protocol.StPaused {
		// Selecting a new document ends the current presentation.
		c.teardownPresentationLocked()
		m.Apply(protocol.InPresentationEnd)
	}
	if err := m.Apply(protocol.InRequestDoc); err != nil {
		c.lastError = err.Error()
		return
	}
	c.logEvent("request " + name)
	win := c.opts.Window
	if win <= 0 {
		// The statistical window calculation, using the worst (video)
		// frame interval before the announce arrives.
		win = buffer.ComputeWindow(40*time.Millisecond, c.opts.JitterBudget, c.opts.WindowSafety)
	}
	host := c.current
	c.sendReqLocked(host, protocol.MsgDocRequest, protocol.DocRequest{
		Name:          name,
		MediaPortBase: c.opts.MediaPortBase,
		WindowMS:      int(win / time.Millisecond),
	}, time.Time{}, func() {
		mach := c.machine(host)
		if mach.State() == protocol.StRequesting && mach.Can(protocol.InDocFail) {
			mach.Apply(protocol.InDocFail)
		}
		c.lastError = "document request timed out: " + name
	})
}

// Disconnect ends the session with the current server.
func (c *Client) Disconnect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current == "" {
		return
	}
	c.teardownPresentationLocked()
	m := c.machine(c.current)
	if m.Can(protocol.InDisconnect) {
		m.Apply(protocol.InDisconnect)
	}
	c.cancelPendingLocked(c.current)
	if c.hbTimer != nil {
		c.hbTimer.Stop()
		c.hbTimer = nil
	}
	c.send(c.current, protocol.MsgDisconnect, protocol.Disconnect{})
	c.logEvent("disconnect " + c.current)
	c.opts.Obs.Emit(obs.EvSessionEnd, c.current, 0, "client disconnect")
	c.current = ""
}

// Pause pauses the presentation locally and at the media servers.
func (c *Client) Pause() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.player == nil || c.machine(c.current).State() != protocol.StViewing {
		return
	}
	c.machine(c.current).Apply(protocol.InPause)
	c.send(c.current, protocol.MsgPause, protocol.MediaOp{})
	c.player.Pause()
	c.userPaused = true
	c.logEvent("pause")
}

// Resume continues a paused presentation.
func (c *Client) Resume() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.player == nil || c.machine(c.current).State() != protocol.StPaused {
		return
	}
	c.machine(c.current).Apply(protocol.InResume)
	c.send(c.current, protocol.MsgResume, protocol.MediaOp{})
	c.player.Resume()
	c.userPaused = false
	c.logEvent("resume")
}

// DisableMedia stops one stream's presentation and transmission.
func (c *Client) DisableMedia(streamID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.send(c.current, protocol.MsgDisableMedia, protocol.MediaOp{StreamID: streamID})
	c.logEvent("disable " + streamID)
}

// Annotate attaches a remark to the current document.
func (c *Client) Annotate(text string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.send(c.current, protocol.MsgAnnotate, protocol.Annotate{Text: text})
}

// RequestStats asks the current server for its telemetry registry
// snapshot; the reply lands in Stats.
func (c *Client) RequestStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastStats = nil
	c.sendReqLocked(c.current, protocol.MsgStatsRequest, protocol.StatsRequest{}, time.Time{}, nil)
}

// Stats returns the last received server telemetry snapshot (nil = none
// yet).
func (c *Client) Stats() *protocol.StatsResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastStats
}

// RequestAnnotations asks for the remarks stored on a document ("" = the
// current one); the reply lands in Annotations.
func (c *Client) RequestAnnotations(doc string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.annotations = nil
	c.sendReqLocked(c.current, protocol.MsgListAnnotations, protocol.ListAnnotations{Doc: doc}, time.Time{}, nil)
}

// Annotations returns the last received annotation listing (nil = none yet).
func (c *Client) Annotations() *protocol.Annotations {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.annotations
}

// Reload re-requests the current document from the start (the navigation
// stacks are untouched).
func (c *Client) Reload() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.docName != "" {
		name := c.docName
		c.navDirection = 2
		c.requestDocLocked(name)
	}
}

// Back returns to the previously viewed document, reconnecting to its
// server when necessary. It reports whether there was anywhere to go.
func (c *Client) Back() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.backStack) == 0 {
		return false
	}
	target := c.backStack[len(c.backStack)-1]
	c.backStack = c.backStack[:len(c.backStack)-1]
	c.navDirection = -1
	c.logEvent("back → " + target.Name)
	c.navigateLocked(target)
	return true
}

// Forward re-advances after a Back. It reports whether there was anywhere
// to go.
func (c *Client) Forward() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.fwdStack) == 0 {
		return false
	}
	target := c.fwdStack[len(c.fwdStack)-1]
	c.fwdStack = c.fwdStack[:len(c.fwdStack)-1]
	c.navDirection = 1
	c.logEvent("forward → " + target.Name)
	c.navigateLocked(target)
	return true
}

// CanBack and CanForward report stack availability.
func (c *Client) CanBack() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.backStack) > 0
}

// CanForward reports whether Forward has anywhere to go.
func (c *Client) CanForward() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.fwdStack) > 0
}

// navigateLocked requests a document, switching servers when the entry
// lives elsewhere.
func (c *Client) navigateLocked(e navEntry) {
	if e.Host == "" || e.Host == c.current {
		c.requestDocLocked(e.Name)
		return
	}
	dir := c.navDirection
	c.followLinkLocked(scenario.Link{Target: e.Name, Host: e.Host})
	c.navDirection = dir
}

// FollowLink navigates to a linked document, suspending the current
// connection when the target lives on another server.
func (c *Client) FollowLink(link scenario.Link) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.followLinkLocked(link)
}

func (c *Client) followLinkLocked(link scenario.Link) {
	target := link.Target
	if link.Host == "" || link.Host == c.current {
		c.requestDocLocked(target)
		return
	}
	// Cross-server navigation: suspend here, connect there.
	m := c.machine(c.current)
	if m.Can(protocol.InRedirect) {
		m.Apply(protocol.InRedirect)
	}
	c.teardownPresentationLocked()
	from := c.current
	// Stop the torn-down presentation's media before the suspend parks it:
	// a user pause survives the suspend, so a return to this server does
	// not wake streams nobody plays.
	c.send(from, protocol.MsgPause, protocol.MediaOp{})
	c.logEvent(fmt.Sprintf("suspend %s → %s", from, link.Host))
	c.sendReqLocked(from, protocol.MsgSuspend, protocol.Suspend{},
		time.Time{}, c.suspendAbandonedLocked)
	// The new connection proceeds immediately; the suspend ack arrives
	// asynchronously and stores the resume token.
	host := link.Host
	c.pendingAfterSuspend = func() {
		c.mu.Lock()
		c.pendingDoc = target
		c.mu.Unlock()
		c.Connect(host)
	}
}

// suspendAbandonedLocked runs when a suspend request times out: proceed
// with the pending navigation anyway (the unreachable session expires
// server-side). The continuation re-locks, so it runs off a zero timer.
func (c *Client) suspendAbandonedLocked() {
	after := c.pendingAfterSuspend
	c.pendingAfterSuspend = nil
	if after != nil {
		c.clk.AfterFunc(0, after)
	}
}

// ReturnTo resumes a previously suspended connection within its grace
// period.
func (c *Client) ReturnTo(host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logEvent("return to " + host)
	c.current = host
	c.lastConnect = nil
	c.sendReqLocked(host, protocol.MsgConnect, protocol.Connect{
		User: c.opts.User, ResumeToken: c.suspendTokens[host],
	}, time.Time{}, nil)
}

// --- accessors for tests and experiments ---

// LastConnect returns the most recent connect result.
func (c *Client) LastConnect() *protocol.ConnectResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastConnect
}

// LastSubscribe returns the most recent subscription result.
func (c *Client) LastSubscribe() *protocol.SubscribeResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSubscribe
}

// Topics returns the last received contents listing.
func (c *Client) Topics() []protocol.TopicInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.topics
}

// SearchResults returns the last search hits and whether the reply arrived.
func (c *Client) SearchResults() ([]protocol.TopicInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.searchHits, c.searchDone
}

// LastError returns the most recent error string.
func (c *Client) LastError() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastError
}

// Display returns the playout trace of the current/last presentation.
func (c *Client) Display() *playout.Display {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.display
}

// Player returns the active presentation scheduler (nil when idle).
func (c *Client) Player() *playout.Player {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.player
}

// Buffers returns the active buffer set (nil when idle).
func (c *Client) Buffers() *buffer.Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bufs
}

// Monitor returns the client QoS manager.
func (c *Client) Monitor() *qos.ClientMonitor { return c.monitor }

// StartupDelay returns the deliberate initial delay of the last
// presentation (zero until playout started).
func (c *Client) StartupDelay() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.startDelay
}

// History returns the names of documents viewed, oldest first.
func (c *Client) History() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.history))
	copy(out, c.history)
	return out
}

// SuspendToken returns the resume token held for a server.
func (c *Client) SuspendToken(host string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.suspendTokens[host]
}

// StreamInfo returns the media connection plan the server announced for a
// stream of the current document (zero value when unknown).
func (c *Client) StreamInfo(id string) (protocol.StreamAnnounce, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ann, ok := c.streamInfo[id]
	return ann, ok
}

// SessionID returns the session identifier granted by a server ("" when not
// connected there).
func (c *Client) SessionID(host string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessions[host]
}

// Scenario returns the active scenario (nil when idle).
func (c *Client) Scenario() *scenario.Scenario {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sc
}
