package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/hml"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/server"
)

// wireDigest folds packets handed to the simulated network — destination,
// send instant and payload bytes — into one FNV-1a hash, so two runs can be
// compared packet for packet.
type wireDigest struct {
	h hash.Hash64
	n int
}

func newWireDigest() *wireDigest { return &wireDigest{h: fnv.New64a()} }

func (d *wireDigest) add(to netsim.Addr, at time.Time, payload []byte) {
	var b [8]byte
	d.h.Write([]byte(to))
	binary.LittleEndian.PutUint64(b[:], uint64(at.UnixNano()))
	d.h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(len(payload)))
	d.h.Write(b[:])
	d.h.Write(payload)
	d.n++
}

// sniff is a netsim.Network Sniffer: it sees every send, a fan-out send
// once with an empty destination.
func (d *wireDigest) sniff(p netsim.Packet) { d.add(p.To, p.SentAt, p.Payload) }

func (d *wireDigest) sum() uint64 { return d.h.Sum64() }

// TestSameSeedReplayIsExact replays one two-slide lesson ten times with the
// same seed, with private streams and with shared flows: every replay must
// put the same packets on the wire at the same instants. Streams whose
// frames fall due at the same instant are emitted in flow-scenario order,
// never in map order.
func TestSameSeedReplayIsExact(t *testing.T) {
	doc := hml.LessonSource("replay", 2, 6*time.Second)
	for _, shared := range []bool{false, true} {
		digests := map[uint64]int{}
		for run := 0; run < 10; run++ {
			d := newWireDigest()
			_, err := Play(PlayConfig{
				DocSource: doc, Seed: 110, Sniffer: d.sniff,
				Server: server.Options{SharedFlows: shared},
			})
			if err != nil {
				t.Fatal(err)
			}
			digests[d.sum()]++
		}
		if len(digests) != 1 {
			t.Fatalf("shared=%v: 10 same-seed replays gave %d distinct wire digests: %v",
				shared, len(digests), digests)
		}
	}
}

// fanTap hashes each destination of a fan-out send, which the network's
// Sniffer sees only once, without a destination.
type fanTap struct {
	*netsim.Network
	clk clock.Clock
	d   *wireDigest
}

func (t fanTap) SendMulti(p netsim.Packet, tos []netsim.Addr) error {
	now := t.clk.Now()
	for _, to := range tos {
		t.d.add(to, now, p.Payload)
	}
	return t.Network.SendMulti(p, tos)
}

// The golden wire digests pin every byte the service puts on the wire in
// two scenarios, so a refactor of the media data plane can prove it changed
// nothing. A change that alters the wire on purpose must update them and
// say why.
const (
	goldenPrivateDigest = 0x8ebbcd870dac8e58
	goldenPrivatePkts   = 2124
	goldenSharedDigest  = 0x7d2ad3b956898e56
	goldenSharedPkts    = 12237
)

// TestGoldenWirePrivate plays one AU_VI lesson over a 1%-loss path with a
// congestion phase, so quality grading degrades the streams mid-lesson.
func TestGoldenWirePrivate(t *testing.T) {
	d := newWireDigest()
	cfg := PlayConfig{
		DocSource: `<TITLE>golden</TITLE><AU_VI SOURCE=au/a SOURCE=vi/v ID=a ID=v STARTIME=0 DURATION=20> </AU_VI>`,
		Seed:      21,
		Link: netsim.LinkConfig{Bandwidth: 10_000_000, Delay: 10 * time.Millisecond,
			Jitter: 5 * time.Millisecond, Loss: 0.01},
		Phases: []netsim.Phase{{Start: 4 * time.Second, Duration: 8 * time.Second,
			LossFactor: 30, BandwidthFactor: 0.5}},
		Sniffer: d.sniff,
	}
	cfg.Client.FeedbackInterval = 500 * time.Millisecond
	res, err := Play(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradeCount() == 0 {
		t.Fatalf("grading never acted: %+v", res.Actions)
	}
	if d.sum() != goldenPrivateDigest || d.n != goldenPrivatePkts {
		t.Fatalf("private wire digest = %#x over %d packets, want %#x over %d",
			d.sum(), d.n, uint64(goldenPrivateDigest), goldenPrivatePkts)
	}
}

// TestGoldenWireShared has three viewers on one lesson with shared flows:
// v2 joins late and is patched from the segment cache, v3 disables a stream
// and its congested path makes grading move its video off the flows' level,
// v1 pauses and resumes, and v2 reloads (the server's replay) and then
// re-requests the lesson.
func TestGoldenWireShared(t *testing.T) {
	clk := clock.NewSim()
	net := netsim.New(clk, 22)
	net.SetDefaultLink(netsim.DefaultLAN())
	d := newWireDigest()
	net.Sniffer = d.sniff
	net.SetLink("server", "v3", netsim.LinkConfig{Bandwidth: 10_000_000,
		Delay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Loss: 0.01})
	net.AddPhase("server", "v3", netsim.Phase{Start: 2 * time.Second,
		Duration: 8 * time.Second, LossFactor: 30})

	users := auth.NewDB()
	if err := users.Subscribe(auth.User{Name: "u", Password: "pw",
		Email: "u@example.gr", Class: qos.Standard}, clk.Now()); err != nil {
		t.Fatal(err)
	}
	db := server.NewDatabase()
	if err := db.Put("doc", hml.LessonSource("golden", 2, 8*time.Second), ""); err != nil {
		t.Fatal(err)
	}
	scope := obs.NewScope(clk)
	srv, err := server.New("server", clk, fanTap{net, clk, d}, users, db,
		server.Options{SharedFlows: true, Obs: scope})
	if err != nil {
		t.Fatal(err)
	}
	viewer := func(host string) *client.Client {
		c, err := client.New(host, clk, net, client.Options{User: "u", Password: "pw",
			FeedbackInterval: 500 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		c.Connect("server")
		return c
	}
	v1, v3 := viewer("v1"), viewer("v3")
	clk.RunFor(time.Second)
	v1.RequestDoc("doc")
	v3.RequestDoc("doc")
	clk.RunFor(3 * time.Second)
	v2 := viewer("v2")
	clk.RunFor(time.Second)
	v2.RequestDoc("doc")
	clk.RunFor(time.Second)
	v3.DisableMedia("golden-au1")
	clk.RunFor(time.Second)
	v1.Pause()
	clk.RunFor(2 * time.Second)
	v1.Resume()
	clk.RunFor(2 * time.Second)
	net.Send(netsim.Packet{From: netsim.MakeAddr("v2", 6000), To: netsim.MakeAddr("server", server.ControlPort),
		Payload: protocol.MustEncode(protocol.MsgReload, protocol.MediaOp{}), Reliable: true})
	clk.RunFor(2 * time.Second)
	v2.Reload()
	clk.RunFor(15 * time.Second)

	if n := scope.Counter("server_flow_catchup_frames").Value(); n == 0 {
		t.Fatal("no late joiner was patched")
	}
	if acts := srv.QoSManager(netsim.MakeAddr("v3", 6000)).Actions(); len(acts) == 0 {
		t.Fatal("grading never acted on the congested viewer")
	}
	for _, c := range []*client.Client{v1, v2, v3} {
		c.Disconnect()
	}
	clk.RunFor(time.Second)
	if fs := srv.FlowStats(); len(fs) != 0 {
		t.Fatalf("flows left after every viewer disconnected: %+v", fs)
	}
	if d.sum() != goldenSharedDigest || d.n != goldenSharedPkts {
		t.Fatalf("shared wire digest = %#x over %d packets, want %#x over %d",
			d.sum(), d.n, uint64(goldenSharedDigest), goldenSharedPkts)
	}
}
