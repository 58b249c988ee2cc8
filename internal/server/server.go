package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/stats"
)

// ControlPort is the well-known control port of every multimedia server.
const ControlPort = 5000

// mediaPort is the source port media senders transmit from.
const mediaPort = 5001

// Options tunes a server.
type Options struct {
	// Capacity is the outbound bandwidth for admission control (bits/s).
	Capacity float64
	// Grace is how long a suspended connection is kept alive.
	Grace time.Duration
	// PreRoll is the flow scheduler's transmission lead over playout
	// deadlines (fills the client's media time window).
	PreRoll time.Duration
	// Policy is the QoS grading policy.
	Policy qos.Policy
	// DisableGrading turns the long-term quality adaptation off (the E3
	// ablation baseline).
	DisableGrading bool
	// HeartbeatEvery is the expected client heartbeat period; the liveness
	// sweep runs at this cadence.
	HeartbeatEvery time.Duration
	// LivenessMisses is how many consecutive missed heartbeats declare a
	// client dead and auto-suspend its session (the grace timer then runs
	// as for a voluntary suspend). Liveness is only enforced on sessions
	// that have sent at least one heartbeat.
	LivenessMisses int
	// Obs, when set, receives session/grading/admission telemetry and
	// serves the control-protocol stats snapshot.
	Obs *obs.Scope

	// SharedFlows enables the fan-out layer: sessions requesting the same
	// document attach as subscribers to one paced flow per time-sensitive
	// stream — one encode and one packet assembly per frame regardless of
	// the audience size (see flow.go). Off by default: every stream is a
	// private flow of one subscriber.
	SharedFlows bool

	// Directory, when set, is the cluster's placement/load view: it makes
	// the advertised peer set per-document, lets doc requests for documents
	// homed elsewhere answer with a handoff instead of "not found", and
	// informs redirect target ordering. Nil means standalone operation.
	Directory Directory
	// RedirectWatermark, as a fraction of Capacity (e.g. 0.8), makes the
	// server answer fresh Connects with an in-protocol redirect to its
	// less-loaded peers once reserved bandwidth reaches the watermark.
	// Zero disables bandwidth-watermark redirects.
	RedirectWatermark float64
	// SessionWatermark redirects fresh Connects once this many sessions
	// are resident. Zero disables session-count redirects.
	SessionWatermark int
	// ClusterKey is the shared HMAC key signing cross-server handoff
	// tickets. Empty disables ticket minting (handoffs degrade to a plain
	// redirect + credentialed reconnect).
	ClusterKey []byte
}

func (o *Options) fill() {
	if o.Capacity <= 0 {
		o.Capacity = 10_000_000
	}
	if o.Grace <= 0 {
		o.Grace = 30 * time.Second
	}
	if o.PreRoll <= 0 {
		o.PreRoll = 2 * time.Second
	}
	if o.Policy.Alpha == 0 {
		o.Policy = qos.DefaultPolicy()
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = time.Second
	}
	if o.LivenessMisses <= 0 {
		o.LivenessMisses = 3
	}
}

// Server is one multimedia server node. Session and dedup state is split
// across address-hashed shards (see shard.go for the layout and the lock
// order); everything else sits behind small dedicated leaf locks.
type Server struct {
	// Name is the server's host name on the network.
	Name string

	clk   clock.Clock
	net   netsim.Net
	db    *Database
	users *auth.DB
	adm   *qos.Admission
	opts  Options

	shards [ctrlShards]ctrlShard

	// sessionCount mirrors the total resident sessions across shards so
	// Sessions() and the sessions gauge never touch a shard lock.
	sessionCount atomic.Int64
	nextID       atomic.Int64
	nextSSRC     atomic.Uint32

	peersMu sync.RWMutex
	peers   []string // other servers' host names for federated search

	searchMu  sync.Mutex
	nextQuery int
	searches  map[int]*pendingSearch

	// annotations holds user remarks per document name ("the user may
	// also annotate the selected document with his own remarks").
	annMu       sync.Mutex
	annotations map[string][]protocol.AnnotationRecord

	// Data-plane counters, resolved once at construction so the per-frame
	// emit path increments atomics directly instead of doing a registry
	// lookup per frame (shared no-ops when telemetry is off). mFrames counts
	// ENCODES (one per flow frame however many subscribers it fans to);
	// mDelivered counts per-subscriber frame deliveries, so the two diverge
	// exactly by the fan-out factor.
	mFrames    *stats.Counter
	mPackets   *stats.Counter
	mBytes     *stats.Counter
	mDelivered *stats.Counter

	// Shared-flow state: the live flow registry, the cached multi-send
	// assertion (nil when the transport lacks one — sendMedia then loops),
	// and the flow lifecycle counters.
	flows         flowRegistry
	multi         netsim.MultiSender
	cFlowsCreated *stats.Counter
	cFlowsTorn    *stats.Counter
	cFlowAttaches *stats.Counter
	cFlowDetaches *stats.Counter
	cFlowCatchup  *stats.Counter

	// Latency-span instruments, likewise resolved once (shared no-ops when
	// telemetry is off): sampled frame spans for the emit→wire hop, the
	// control-dispatch service time, and the sweep-tick wall durations.
	spans      *obs.FrameSpans
	hHandle    *stats.DurationHistogram
	hLiveTick  *stats.DurationHistogram
	hDedupTick *stats.DurationHistogram

	// Cluster counters, resolved once: admission redirects issued, handoff
	// tickets minted, and handoff tickets accepted from peers.
	cRedirects      *stats.Counter
	cHandoffs       *stats.Counter
	cHandoffAccepts *stats.Counter
}

// session is one client's server-side state.
type session struct {
	id   string
	user string
	// class is the user's pricing contract, kept so a cross-server handoff
	// ticket can carry it without a subscriber-database lookup.
	class       qos.PricingClass
	client      netsim.Addr
	connID      int
	floorLevel  int
	qosMgr      *qos.Manager
	senders     []*sender // flow-scenario order, so per-stream loops replay identically
	ssrcToID    map[uint32]string
	doc         string
	suspended   bool
	resumeToken string
	graceTimer  *clock.Timer
	srTimer     *clock.Timer
	flowOrigin  time.Time
	startedAt   time.Time
	// lastBeat is the arrival time of the client's latest heartbeat (zero
	// until the first one: such sessions are exempt from the liveness
	// sweep).
	lastBeat time.Time

	// shard is the index of the ctrlShard currently holding the session;
	// it changes only under both the old and the new shard's lock (see
	// lockSession). lwPos is the session's slot on that shard's liveness
	// wheel; renegQueued dedups the shard's renegotiation batch.
	shard       atomic.Int32
	lwPos       wheelPos
	renegQueued atomic.Bool
}

// sender returns the session's sender of stream id, or nil. A session
// carries only a few streams, so a linear scan suffices.
func (sess *session) sender(id string) *sender {
	for _, snd := range sess.senders {
		if snd.stream.ID == id {
			return snd
		}
	}
	return nil
}

type pendingSearch struct {
	client  netsim.Addr
	reqID   uint32
	hits    []protocol.TopicInfo
	waiting int
	timer   *clock.Timer
}

// New creates a server and registers its control listener on the network.
// It fails when the network cannot bind the server's control address (only
// possible on the live transport).
func New(name string, clk clock.Clock, net netsim.Net, users *auth.DB, db *Database, opts Options) (*Server, error) {
	opts.fill()
	s := &Server{
		Name:        name,
		clk:         clk,
		net:         net,
		db:          db,
		users:       users,
		adm:         qos.NewAdmission(opts.Capacity),
		opts:        opts,
		searches:    map[int]*pendingSearch{},
		annotations: map[string][]protocol.AnnotationRecord{},
	}
	s.nextSSRC.Store(1000)
	now := clk.Now()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.sessions = map[string]*session{}
		sh.byToken = map[string]*session{}
		sh.byID = map[string]*session{}
		sh.dedup = map[string]*dedupRing{}
		// Liveness deadlines span the miss window; ring TTLs span dedupTTL.
		// Bucket counts cover each wheel's horizon with one slot of slack
		// (the wrap-around re-check in advance handles anything longer).
		sh.live = newWheel(now, opts.HeartbeatEvery, opts.LivenessMisses+2,
			func(sess *session) *wheelPos { return &sess.lwPos })
		sh.rings = newWheel(now, dedupTTL/2, 4,
			func(r *dedupRing) *wheelPos { return &r.pos })
	}
	s.adm.SetObs(opts.Obs)
	s.mFrames = opts.Obs.Counter("server_media_frames_sent")
	s.mPackets = opts.Obs.Counter("server_media_packets_sent")
	s.mBytes = opts.Obs.Counter("server_media_bytes_sent")
	s.mDelivered = opts.Obs.Counter("server_media_frames_delivered")
	s.cFlowsCreated = opts.Obs.Counter("server_flows_created")
	s.cFlowsTorn = opts.Obs.Counter("server_flows_torn_down")
	s.cFlowAttaches = opts.Obs.Counter("server_flow_attaches")
	s.cFlowDetaches = opts.Obs.Counter("server_flow_detaches")
	s.cFlowCatchup = opts.Obs.Counter("server_flow_catchup_frames")
	s.multi, _ = net.(netsim.MultiSender)
	s.spans = opts.Obs.FrameSpans()
	s.hHandle = opts.Obs.HistogramBounds("server_ctrl_handle", stats.MicroLatencyBounds()...)
	s.hLiveTick = opts.Obs.HistogramBounds("server_sweep_live_tick", stats.MicroLatencyBounds()...)
	s.hDedupTick = opts.Obs.HistogramBounds("server_sweep_dedup_tick", stats.MicroLatencyBounds()...)
	s.cRedirects = opts.Obs.Counter("cluster_redirects")
	s.cHandoffs = opts.Obs.Counter("cluster_handoffs")
	s.cHandoffAccepts = opts.Obs.Counter("cluster_handoff_accepts")
	for i := range s.shards {
		s.shards[i].mu.hWait = opts.Obs.HistogramBounds(
			obs.Label("server_lock_wait", "shard", fmt.Sprintf("%02d", i)),
			stats.MicroLatencyBounds()...)
	}
	if err := net.Listen(s.ctrlAddr(), s.handle); err != nil {
		return nil, fmt.Errorf("server %s: %w", name, err)
	}
	return s, nil
}

func (s *Server) ctrlAddr() netsim.Addr { return netsim.MakeAddr(s.Name, ControlPort) }

// SetPeers configures the other servers for federated search.
func (s *Server) SetPeers(names []string) {
	s.peersMu.Lock()
	defer s.peersMu.Unlock()
	s.peers = append([]string(nil), names...)
}

// peerList snapshots the federated-search peer set.
func (s *Server) peerList() []string {
	s.peersMu.RLock()
	defer s.peersMu.RUnlock()
	return append([]string(nil), s.peers...)
}

// Database exposes the server's document store.
func (s *Server) Database() *Database { return s.db }

// Admission exposes the admission controller (for experiments).
func (s *Server) Admission() *qos.Admission { return s.adm }

// reply sends a fire-and-forget control message (request ID 0).
func (s *Server) reply(to netsim.Addr, t protocol.MsgType, body interface{}) {
	s.replyReq(to, 0, t, body)
}

// replyReq answers a request, echoing its request ID and caching the
// encoded reply for idempotent retransmission handling.
func (s *Server) replyReq(to netsim.Addr, reqID uint32, t protocol.MsgType, body interface{}) {
	frame := protocol.MustEncodeReq(t, reqID, body)
	if reqID != 0 {
		si := shardIndex(string(to))
		sh := &s.shards[si]
		sh.dmu.Lock()
		s.dedupRingLocked(sh, si, string(to)).put(reqID, frame)
		sh.dmu.Unlock()
	}
	s.sendCtrl(to, frame)
}

// sendCtrl puts one control frame on the wire, making transport refusals
// visible instead of silently losing replies.
func (s *Server) sendCtrl(to netsim.Addr, frame []byte) {
	err := s.net.Send(netsim.Packet{
		From:     s.ctrlAddr(),
		To:       to,
		Payload:  frame,
		Reliable: true,
	})
	if err != nil {
		s.opts.Obs.Counter("server_reply_send_failures").Inc()
		s.opts.Obs.Emit(obs.EvSendFailure, string(to), 0, "control send failed: "+err.Error())
	}
}

// onStats answers a sessionless telemetry snapshot request: the registry's
// sorted metric points plus the shape of the trace ring. With telemetry
// off it answers OK with no metrics, so monitoring tools can distinguish
// "off" from "unreachable".
func (s *Server) onStats(from netsim.Addr, reqID uint32) {
	res := protocol.StatsResult{OK: true, Server: s.Name}
	if sc := s.opts.Obs; sc.Enabled() {
		res.Metrics = sc.Registry().Snapshot()
		res.TraceEvents = sc.Trace().Len()
		res.TraceDropped = sc.Trace().Dropped()
	}
	s.replyReq(from, reqID, protocol.MsgStatsResult, res)
}

func (s *Server) onSubscribe(from netsim.Addr, reqID uint32, m protocol.SubscriptionForm) {
	err := s.users.Subscribe(auth.User{
		Name: m.User, Password: m.Password, RealName: m.RealName,
		Address: m.Address, Email: m.Email, Phone: m.Phone, Class: m.Class,
	}, s.clk.Now())
	res := protocol.SubscribeResult{OK: err == nil}
	if err != nil {
		res.Reason = err.Error()
	}
	s.replyReq(from, reqID, protocol.MsgSubscribeResult, res)
}

func (s *Server) onSearch(from netsim.Addr, reqID uint32, m protocol.Search) {
	local := s.db.Search(m.Token, s.Name)
	if m.NoForward {
		// Fan-out query from a peer server: answer directly.
		s.replyReq(from, reqID, protocol.MsgSearchResult, protocol.SearchResult{
			SearchID: m.SearchID, Hits: local,
		})
		return
	}
	peers := s.peerList()
	if len(peers) == 0 {
		s.replyReq(from, reqID, protocol.MsgSearchResult, protocol.SearchResult{Hits: local})
		return
	}
	s.searchMu.Lock()
	s.nextQuery++
	qid := s.nextQuery
	ps := &pendingSearch{client: from, reqID: reqID, hits: local, waiting: len(peers)}
	s.searches[qid] = ps
	// Safety timeout: answer with whatever arrived.
	ps.timer = s.clk.AfterFunc(2*time.Second, func() { s.finishSearch(qid) })
	s.searchMu.Unlock()
	for _, p := range peers {
		s.net.Send(netsim.Packet{
			From: s.ctrlAddr(),
			To:   netsim.MakeAddr(p, ControlPort),
			Payload: protocol.MustEncode(protocol.MsgSearch, protocol.Search{
				Token: m.Token, NoForward: true, SearchID: qid,
			}),
			Reliable: true,
		})
	}
}

func (s *Server) onSearchResult(m protocol.SearchResult) {
	s.searchMu.Lock()
	ps, ok := s.searches[m.SearchID]
	if !ok {
		s.searchMu.Unlock()
		return
	}
	ps.hits = append(ps.hits, m.Hits...)
	ps.waiting--
	done := ps.waiting == 0
	s.searchMu.Unlock()
	if done {
		s.finishSearch(m.SearchID)
	}
}

func (s *Server) finishSearch(qid int) {
	s.searchMu.Lock()
	ps, ok := s.searches[qid]
	if !ok {
		s.searchMu.Unlock()
		return
	}
	delete(s.searches, qid)
	if ps.timer != nil {
		ps.timer.Stop()
	}
	hits := ps.hits
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Server != hits[j].Server {
			return hits[i].Server < hits[j].Server
		}
		return hits[i].Name < hits[j].Name
	})
	client := ps.client
	s.searchMu.Unlock()
	s.replyReq(client, ps.reqID, protocol.MsgSearchResult, protocol.SearchResult{Hits: hits})
}

func (s *Server) onAnnotate(from netsim.Addr, m protocol.Annotate) {
	sh := s.shardOf(string(from))
	sh.mu.Lock()
	sess, ok := sh.sessions[string(from)]
	if !ok {
		sh.mu.Unlock()
		return
	}
	doc := sess.doc
	user := sess.user
	sh.mu.Unlock()
	s.annMu.Lock()
	s.annotations[doc] = append(s.annotations[doc], protocol.AnnotationRecord{
		User: user, Text: m.Text, AtUnixMilli: s.clk.Now().UnixMilli(),
	})
	s.annMu.Unlock()
	s.users.LogRetrieval(user, fmt.Sprintf("annotate %s: %s", doc, m.Text), s.clk.Now())
}

// onListAnnotations returns the remarks stored for a document.
func (s *Server) onListAnnotations(from netsim.Addr, reqID uint32, m protocol.ListAnnotations) {
	doc := m.Doc
	if doc == "" {
		sh := s.shardOf(string(from))
		sh.mu.RLock()
		if sess, ok := sh.sessions[string(from)]; ok {
			doc = sess.doc
		}
		sh.mu.RUnlock()
	}
	s.annMu.Lock()
	recs := append([]protocol.AnnotationRecord(nil), s.annotations[doc]...)
	s.annMu.Unlock()
	s.replyReq(from, reqID, protocol.MsgAnnotations, protocol.Annotations{Doc: doc, Records: recs})
}

func minInt(a, b int) int {
	if a <= 0 {
		return b
	}
	if a < b {
		return a
	}
	return b
}
