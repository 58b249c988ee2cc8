// Package qos implements the paper's quality-of-service machinery: the
// client-side measurement aggregation that turns RTP reception statistics
// into feedback reports, the server-side QoS manager whose grading policy
// gracefully degrades and upgrades stream quality in response to those
// reports (the long-term synchronization recovery of §4), and the
// connection-admission controller that weighs network condition, the new
// connection's load, the user's acceptable-quality floor and the user's
// pricing contract.
package qos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Report is one feedback report about one stream, as derived from RTCP
// receiver reports: the loss fraction and delay jitter over the last
// reporting interval.
type Report struct {
	StreamID string
	// Loss is the fraction of packets lost in the interval [0,1].
	Loss float64
	// Jitter is the interarrival jitter estimate.
	Jitter time.Duration
	// Delay is the most recent one-way transit estimate.
	Delay time.Duration
	// At is the report time.
	At time.Time
}

// ActionKind classifies grading decisions.
type ActionKind int

// Grading actions.
const (
	// ActNone means no change.
	ActNone ActionKind = iota
	// ActDegrade lowers quality one level (e.g. raise the video
	// compression factor, lower the audio sampling frequency).
	ActDegrade
	// ActUpgrade restores quality one level.
	ActUpgrade
	// ActCutoff stops transmitting the stream: it sits at the user's
	// lowest acceptable threshold and conditions are still bad.
	ActCutoff
	// ActRestore restarts a cut-off stream at its floor level.
	ActRestore
)

func (k ActionKind) String() string {
	switch k {
	case ActNone:
		return "none"
	case ActDegrade:
		return "degrade"
	case ActUpgrade:
		return "upgrade"
	case ActCutoff:
		return "cutoff"
	case ActRestore:
		return "restore"
	default:
		return "unknown"
	}
}

// Action is one grading decision for one stream.
type Action struct {
	StreamID string
	Kind     ActionKind
	From, To int
	Reason   string
}

// Policy tunes the server QoS manager.
type Policy struct {
	// DegradeLoss: smoothed loss above this triggers degradation.
	DegradeLoss float64
	// UpgradeLoss: smoothed loss below this (and jitter below
	// UpgradeJitter) permits upgrading.
	UpgradeLoss float64
	// DegradeJitter: smoothed jitter above this triggers degradation.
	DegradeJitter time.Duration
	// UpgradeJitter: ceiling for upgrades.
	UpgradeJitter time.Duration
	// HoldDown is the minimum spacing between degrade actions per stream.
	HoldDown time.Duration
	// UpgradeHold is the minimum good-conditions time before an upgrade
	// (hysteresis: upgrades are slower than degrades, per "gracefully
	// upgrade ... when the network's condition permits it").
	UpgradeHold time.Duration
	// Alpha is the EWMA smoothing factor applied to incoming reports.
	Alpha float64
	// VideoFirst degrades a sync group's video before touching its audio
	// ("users can tolerate lower video quality rather than not hear
	// well"), and upgrades audio before video.
	VideoFirst bool
}

// DefaultPolicy returns the policy used by the experiments.
func DefaultPolicy() Policy {
	return Policy{
		DegradeLoss:   0.05,
		UpgradeLoss:   0.01,
		DegradeJitter: 120 * time.Millisecond,
		UpgradeJitter: 40 * time.Millisecond,
		HoldDown:      2 * time.Second,
		UpgradeHold:   8 * time.Second,
		Alpha:         0.3,
		VideoFirst:    true,
	}
}

// StreamConfig registers one stream with the manager.
type StreamConfig struct {
	ID   string
	Kind scenario.MediaType
	// Group is the sync group ("" = none); used by the video-first rule.
	Group string
	// Levels is the stream's quality-ladder depth.
	Levels int
	// Floor is the worst level index the user accepts (the paper's lower
	// threshold); Levels-1 when the user accepts everything.
	Floor int
}

type streamState struct {
	cfg        StreamConfig
	level      int
	stopped    bool
	lossEWMA   float64
	jitterEWMA float64 // milliseconds
	haveData   bool
	lastChange time.Time
	goodSince  time.Time
	series     stats.Series
}

// Manager is the Server QoS Manager: it aggregates feedback reports and
// issues grading actions through the media stream quality converters.
//
// The mutex is a RWMutex because Level sits on the per-frame emit path of
// every media sender: frame pacing takes only a read lock here, so senders
// within a session never serialize on quality lookups, and only feedback
// processing (rare, per RTCP interval) writes.
type Manager struct {
	mu      sync.RWMutex
	clk     clock.Clock
	policy  Policy
	epoch   time.Time
	streams map[string]*streamState
	actions []Action
	obs     *obs.Scope
}

// NewManager creates a server QoS manager.
func NewManager(clk clock.Clock, policy Policy) *Manager {
	if policy.Alpha <= 0 || policy.Alpha > 1 {
		policy.Alpha = 0.3
	}
	return &Manager{
		clk:     clk,
		policy:  policy,
		epoch:   clk.Now(),
		streams: map[string]*streamState{},
	}
}

// SetObs attaches a telemetry scope: every grading action emits a
// GradeChange trace event and bumps a per-kind counter. Nil detaches.
func (m *Manager) SetObs(s *obs.Scope) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.obs = s
}

// recordActionLocked mirrors one grading action into the telemetry scope.
func (m *Manager) recordActionLocked(act Action) {
	if !m.obs.Enabled() {
		return
	}
	m.obs.Counter("qos_" + act.Kind.String()).Inc()
	m.obs.Emit(obs.EvGradeChange, act.StreamID, int64(act.To),
		fmt.Sprintf("%s %d→%d: %s", act.Kind, act.From, act.To, act.Reason))
}

// Register adds a stream at level 0 (best quality).
func (m *Manager) Register(cfg StreamConfig) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cfg.Levels < 1 {
		cfg.Levels = 1
	}
	// A zero Floor means "accept every level": the floor defaults to the
	// bottom of the ladder.
	if cfg.Floor <= 0 || cfg.Floor >= cfg.Levels {
		cfg.Floor = cfg.Levels - 1
	}
	st := &streamState{cfg: cfg, goodSince: m.clk.Now()}
	st.series.Name = cfg.ID
	st.series.Add(m.clk.Since(m.epoch), 0)
	m.streams[cfg.ID] = st
}

// Level returns a stream's current quality level and whether it is stopped.
// Read-locked: safe to call concurrently from every sender's emit path.
func (m *Manager) Level(id string) (level int, stopped bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st := m.streams[id]
	if st == nil {
		return 0, false
	}
	return st.level, st.stopped
}

// LevelMatches reports whether the stream currently runs at exactly the
// given level and is not cut off. This is the shared-flow reconciliation
// predicate: a session may ride a shared flow only while its own grading
// state agrees with the flow's fixed encode level, and must fork onto a
// private flow the moment they diverge. Read-locked like Level.
func (m *Manager) LevelMatches(id string, level int) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st := m.streams[id]
	if st == nil {
		return level == 0
	}
	return !st.stopped && st.level == level
}

// LevelSeries returns the stream's quality-level trajectory (level index
// over time since the manager's epoch; stopped is recorded as Levels).
func (m *Manager) LevelSeries(id string) *stats.Series {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.streams[id]
	if st == nil {
		return nil
	}
	return &st.series
}

// Actions returns all grading actions issued so far.
func (m *Manager) Actions() []Action {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Action, len(m.actions))
	copy(out, m.actions)
	return out
}

// Feedback processes one report and returns the actions taken (zero or one
// action on this stream, possibly redirected within its sync group by the
// video-first rule).
func (m *Manager) Feedback(rep Report) []Action {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.streams[rep.StreamID]
	if st == nil {
		return nil
	}
	a := m.policy.Alpha
	jms := float64(rep.Jitter) / float64(time.Millisecond)
	if !st.haveData {
		st.lossEWMA, st.jitterEWMA = rep.Loss, jms
		st.haveData = true
	} else {
		st.lossEWMA = a*rep.Loss + (1-a)*st.lossEWMA
		st.jitterEWMA = a*jms + (1-a)*st.jitterEWMA
	}
	now := m.clk.Now()

	// Degrade only when both the smoothed history and the latest report
	// breach the threshold: the EWMA filters single spikes, the
	// instantaneous check stops degradation cascading on after the
	// congestion episode has already ended.
	dj := float64(m.policy.DegradeJitter) / float64(time.Millisecond)
	uj := float64(m.policy.UpgradeJitter) / float64(time.Millisecond)
	bad := (st.lossEWMA > m.policy.DegradeLoss && rep.Loss >= m.policy.DegradeLoss) ||
		(st.jitterEWMA > dj && jms >= dj)
	good := st.lossEWMA < m.policy.UpgradeLoss && rep.Loss <= m.policy.UpgradeLoss &&
		st.jitterEWMA < uj && jms <= uj

	if bad {
		st.goodSince = time.Time{}
	} else if st.goodSince.IsZero() {
		st.goodSince = now
	}

	var out []Action
	if bad {
		target := m.pickDegradeTargetLocked(st)
		if target != nil && now.Sub(target.lastChange) >= m.policy.HoldDown {
			out = append(out, m.degradeLocked(target, now,
				fmt.Sprintf("loss=%.3f jitter=%.0fms", st.lossEWMA, st.jitterEWMA)))
		}
	} else if good {
		target := m.pickUpgradeTargetLocked(st)
		if target != nil && !target.goodSince.IsZero() &&
			now.Sub(latest(target.lastChange, target.goodSince)) >= m.policy.UpgradeHold {
			out = append(out, m.upgradeLocked(target, now))
		}
	}
	return out
}

func latest(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// pickDegradeTargetLocked applies the video-first rule: degrading an audio
// stream is redirected to its group's video while the video has headroom.
func (m *Manager) pickDegradeTargetLocked(st *streamState) *streamState {
	if m.policy.VideoFirst && st.cfg.Kind == scenario.TypeAudio && st.cfg.Group != "" {
		if v := m.groupVideoLocked(st.cfg.Group); v != nil && !v.stopped && v.level < v.cfg.Floor {
			return v
		}
	}
	if st.stopped {
		return nil
	}
	return st
}

// pickUpgradeTargetLocked prefers restoring/upgrading audio before video.
func (m *Manager) pickUpgradeTargetLocked(st *streamState) *streamState {
	if m.policy.VideoFirst && st.cfg.Kind == scenario.TypeVideo && st.cfg.Group != "" {
		if a := m.groupAudioLocked(st.cfg.Group); a != nil && (a.stopped || a.level > 0) {
			return a
		}
	}
	if !st.stopped && st.level == 0 {
		return nil
	}
	return st
}

func (m *Manager) groupVideoLocked(group string) *streamState {
	return m.groupKindLocked(group, scenario.TypeVideo)
}

func (m *Manager) groupAudioLocked(group string) *streamState {
	return m.groupKindLocked(group, scenario.TypeAudio)
}

func (m *Manager) groupKindLocked(group string, kind scenario.MediaType) *streamState {
	var ids []string
	for id := range m.streams {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := m.streams[id]
		if st.cfg.Group == group && st.cfg.Kind == kind {
			return st
		}
	}
	return nil
}

func (m *Manager) degradeLocked(st *streamState, now time.Time, reason string) Action {
	var act Action
	if st.level >= st.cfg.Floor {
		// Already at the user's lowest threshold: cut the stream off.
		act = Action{StreamID: st.cfg.ID, Kind: ActCutoff, From: st.level, To: st.level, Reason: reason}
		st.stopped = true
		st.series.Add(m.clk.Since(m.epoch), float64(st.cfg.Levels))
	} else {
		act = Action{StreamID: st.cfg.ID, Kind: ActDegrade, From: st.level, To: st.level + 1, Reason: reason}
		st.level++
		st.series.Add(m.clk.Since(m.epoch), float64(st.level))
	}
	st.lastChange = now
	st.goodSince = time.Time{}
	m.actions = append(m.actions, act)
	m.recordActionLocked(act)
	return act
}

func (m *Manager) upgradeLocked(st *streamState, now time.Time) Action {
	var act Action
	if st.stopped {
		act = Action{StreamID: st.cfg.ID, Kind: ActRestore, From: st.cfg.Floor, To: st.cfg.Floor, Reason: "conditions recovered"}
		st.stopped = false
		st.level = st.cfg.Floor
	} else {
		act = Action{StreamID: st.cfg.ID, Kind: ActUpgrade, From: st.level, To: st.level - 1, Reason: "conditions recovered"}
		st.level--
	}
	st.series.Add(m.clk.Since(m.epoch), float64(st.level))
	st.lastChange = now
	st.goodSince = now
	m.actions = append(m.actions, act)
	m.recordActionLocked(act)
	return act
}
