package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/mbox"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// sim-splice sizing: the Figure 12/13 testbed (four client/server pairs
// and a TCP-terminating proxy host) with long-lived sessions that the
// proxy splices itself out of in staggered waves. The sessions are paced
// below every link's rate: with unpaced bulk senders, congestion losses
// around a splice stall some sessions for good (README.md, "Program
// defects"), and the benchmark needs a workload on which nothing fails.
const (
	splicePairs    = 4
	spliceSessions = 1024                    // paced streams, spread over the pairs
	spliceChunk    = 1460                    // bytes each stream writes per tick
	spliceTick     = 40 * time.Millisecond   // per-stream write period (292 kbit/s per stream)
	spliceStagger  = 100 * time.Millisecond  // handshakes start at seeded offsets within this
	spliceRamp     = 200 * time.Millisecond  // virtual warm-up inside set-up
	spliceWaves    = 4                       // splice waves, one per wave interval
	spliceWaveGap  = 100 * time.Millisecond  // virtual time between waves
	spliceSpread   = 20 * time.Millisecond   // splices of one wave start at seeded offsets within this
	spliceStopAt   = 800 * time.Millisecond  // streams stop and close (relative to the timed phase)
	spliceHorizon  = 1200 * time.Millisecond // timed virtual phase, including the drain
	spliceCtrlLoss = 0.01                    // daemon control datagrams dropped at egress
)

// spliceSession is one paced stream: the client's connection, the bytes
// it handed to TCP, and what the server received.
type spliceSession struct {
	conn    *tcp.Conn
	sent    uint64
	got     uint64
	fin     bool
	stopped bool
}

// spliceWorld is the sim-splice testbed.
type spliceWorld struct {
	env      *lab.Env
	hub      *obs.Hub
	clients  []*lab.Node
	servers  []*lab.Node
	proxyN   *lab.Node
	proxy    *mbox.Proxy
	nodes    []*lab.Node
	sessions []*spliceSession
	byTuple  map[packet.FiveTuple]*spliceSession // client-side tuple → session

	reconfigMs []float64 // trigger → new path in use, per reconfiguration
	done, fail int
	spliceErrs int
	stopBytes  uint64 // bytes delivered when the sources stopped
	stopAt     sim.Time
}

func runSimSplice(b *bench) error {
	return runSimReps(b, buildSplice)
}

func buildSplice(seed int64, tr *tracer) simWorld {
	env := lab.NewEnv(seed)
	w := &spliceWorld{env: env, byTuple: map[packet.FiveTuple]*spliceSession{}}
	w.hub = env.Observe()
	link := netsim.LinkConfig{Delay: 50 * time.Microsecond, Bandwidth: netsim.Mbps(200), QueueBytes: 512 << 10}
	proxyLink := netsim.LinkConfig{Delay: 50 * time.Microsecond, Bandwidth: netsim.Mbps(400), QueueBytes: 1 << 20}
	for i := 0; i < splicePairs; i++ {
		w.clients = append(w.clients, env.AddNode(fmt.Sprintf("client%d", i),
			lab.HostOptions{Link: link, Stack: true, Agent: true}))
	}
	w.proxyN = env.AddNode("proxy", lab.HostOptions{Link: proxyLink, Stack: true, Agent: true})
	for i := 0; i < splicePairs; i++ {
		w.servers = append(w.servers, env.AddNode(fmt.Sprintf("server%d", i),
			lab.HostOptions{Link: link, Stack: true, Agent: true}))
	}
	env.Net.ComputeRoutes()
	for _, h := range env.Net.Hosts() {
		hostCosts(h)
	}
	w.nodes = append(append(append([]*lab.Node{}, w.clients...), w.proxyN), w.servers...)
	// Keep the per-packet event kinds out of storage, as the Figure 12/13
	// drivers do: counters stay exact, stored events stay bounded.
	for _, host := range w.hub.Hosts() {
		w.hub.Recorder(host).Disable(obs.KRewrite, obs.KRetransmit, obs.KRTO)
	}

	w.proxy = mbox.NewProxy(w.proxyN.Stack, w.proxyN.Agent, 80, func(c *tcp.Conn) (packet.Addr, packet.Port) {
		return c.Tuple().SrcIP, 80
	})
	w.proxy.RelayCostPerKB = 2 * time.Microsecond
	for _, c := range w.clients {
		env.ChainPolicy(c, 80, w.proxyN)
		c.Agent.OnReconfigSwitch = func(sess packet.FiveTuple, since sim.Time) {
			w.reconfigMs = append(w.reconfigMs, float64(since)/float64(time.Millisecond))
		}
		c.Agent.OnReconfigDone = func(sess packet.FiveTuple, ok bool, took sim.Time) {
			if ok {
				w.done++
			} else {
				w.fail++
			}
		}
	}
	// Control datagrams get lost now and then: the paper attributes
	// Figure 13's tail to control retransmissions.
	for _, n := range append(append([]*lab.Node{}, w.clients...), w.proxyN) {
		n.Host.AddEgressHook(func(p *packet.Packet, dir netsim.Direction) netsim.Verdict {
			if p.IsUDP() && p.Tuple.DstPort == core.DaemonPort && env.Eng.Rand().Float64() < spliceCtrlLoss {
				return netsim.Drop
			}
			return netsim.Pass
		})
	}
	for _, s := range w.servers {
		s.Stack.Listen(80, func(c *tcp.Conn) {
			ss := w.sessionOfBackend(c)
			if ss == nil {
				c.Abort()
				return
			}
			c.OnData = func(p []byte) { ss.got += uint64(len(p)) }
			c.OnPeerFIN = func() {
				ss.fin = true
				c.Close()
			}
		})
	}

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < spliceSessions; i++ {
		pair := i % splicePairs
		at := sim.Time(rng.Int63n(int64(spliceStagger)))
		env.Eng.At(at, func() {
			id := tr.begin("tcp.Stack.Connect")
			conn := w.clients[pair].Stack.Connect(w.servers[pair].Addr(), 80, tcp.Config{})
			tr.end(id)
			ss := &spliceSession{conn: conn}
			w.sessions = append(w.sessions, ss)
			w.byTuple[conn.Tuple()] = ss
		})
	}
	id := tr.begin("lab.Env.RunFor")
	env.RunFor(spliceRamp)
	tr.end(id)

	// Each stream writes one chunk per tick from a seeded phase, so the
	// offered load stays below every link's rate and no queue overflows.
	t0 := env.Eng.Now()
	chunk := make([]byte, spliceChunk)
	for _, ss := range w.sessions {
		ss := ss
		var tick func()
		tick = func() {
			if ss.stopped {
				return
			}
			if err := ss.conn.Send(chunk); err == nil {
				ss.sent += spliceChunk
			}
			env.Eng.Schedule(spliceTick, tick)
		}
		env.Eng.At(t0+sim.Time(rng.Int63n(int64(spliceTick))), tick)
	}

	// Waves: the proxy splices itself out of every session, one seeded
	// shuffle of the sessions cut into equal waves, each spread over a
	// few ms so the daemons are not synchronized. A session whose
	// backend handshake is still in flight retries shortly after.
	order := rng.Perm(spliceSessions)
	for k, idx := range order {
		wave := k * spliceWaves / spliceSessions
		at := t0 + sim.Time(wave+1)*spliceWaveGap + sim.Time(rng.Int63n(int64(spliceSpread)))
		ss := w.sessions[idx]
		var try func()
		try = func() {
			pr := w.pairOf(ss)
			if pr == nil {
				env.Eng.Schedule(10*time.Millisecond, try)
				return
			}
			id := tr.begin("mbox.ProxyPair.Splice")
			if err := pr.Splice(); err != nil {
				w.spliceErrs++
			}
			tr.end(id)
			if !pr.Spliced() {
				env.Eng.Schedule(10*time.Millisecond, try)
			}
		}
		env.Eng.At(at, try)
	}
	w.stopAt = t0 + spliceStopAt
	env.Eng.At(w.stopAt, func() {
		for _, ss := range w.sessions {
			w.stopBytes += ss.got
			ss.stopped = true
			ss.conn.Close()
		}
	})
	return w
}

// pairOf finds the proxy pair carrying session ss (nil until the proxy
// has accepted it). The proxy accepts the session under its original
// tuple, seen from the server's side.
func (w *spliceWorld) pairOf(ss *spliceSession) *mbox.ProxyPair {
	want := ss.conn.Tuple().Reverse()
	for _, pr := range w.proxy.Pairs() {
		if pr.Client.Tuple() == want {
			return pr
		}
	}
	return nil
}

// sessionOfBackend maps a connection a server accepted from the proxy to
// the client session the proxy relays onto it.
func (w *spliceWorld) sessionOfBackend(c *tcp.Conn) *spliceSession {
	want := c.Tuple().Reverse()
	for _, pr := range w.proxy.Pairs() {
		if pr.Server.Tuple() == want {
			return w.byTuple[pr.Client.Tuple().Reverse()]
		}
	}
	return nil
}

func (w *spliceWorld) lab() *lab.Env     { return w.env }
func (w *spliceWorld) horizon() sim.Time { return spliceHorizon }

func (w *spliceWorld) counters() map[string]uint64 {
	c := map[string]uint64{}
	netCounters(w.env.Net, c)
	agentCounters(w.nodes, c)
	m := w.hub.Metrics
	c["tcp.retransmits"] = m.Counter(obs.MTCPRetransmits)
	c["tcp.timeouts"] = m.Counter(obs.MTCPTimeouts)
	var events uint64
	for _, k := range obs.Kinds() {
		events += w.hub.Count(k)
	}
	c["obs.events"] = events
	return c
}

func (w *spliceWorld) finish(b *bench) simOutcome {
	short := 0
	for i, ss := range w.sessions {
		if ss.got != ss.sent || !ss.fin {
			short++
			if short <= 3 {
				b.check(false, "session %d received %d of %d bytes (fin=%v)", i, ss.got, ss.sent, ss.fin)
			}
		}
	}
	b.check(len(w.sessions) == spliceSessions, "opened %d of %d sessions", len(w.sessions), spliceSessions)
	b.check(w.done == spliceSessions && w.fail == 0 && w.spliceErrs == 0,
		"reconfigurations: %d done, %d failed, %d splice errors, want %d done", w.done, w.fail, w.spliceErrs, spliceSessions)
	b.check(len(w.reconfigMs) == spliceSessions, "%d of %d reconfigurations switched paths", len(w.reconfigMs), spliceSessions)
	b.check(!w.hub.Truncated(), "obs storage truncated")

	p50 := median(w.reconfigMs)
	tailMs, pct := tail(w.reconfigMs)
	goodput := float64(w.stopBytes) * 8 / 1e6 / w.stopAt.Seconds()
	failed := spliceSessions - w.done
	if short > failed {
		failed = short
	}
	var stats []any
	for _, h := range w.env.Net.Hosts() {
		stats = append(stats, h.Name, h.Stats)
	}
	for _, n := range w.nodes {
		stats = append(stats, n.Agent.Stats)
	}
	return simOutcome{
		virt: map[string]float64{
			"goodput_mbps":     goodput,
			"reconfig_p50_ms":  p50,
			"reconfig_tail_ms": tailMs,
		},
		units:     map[string]string{"goodput_mbps": "Mbit/s", "reconfig_p50_ms": "ms", "reconfig_tail_ms": "ms"},
		digest:    digestOf(w.hub.Hash(), w.env.Eng.Processed, w.stopBytes, stats),
		attempted: spliceSessions,
		failed:    int64(failed),
		notes: []string{
			fmt.Sprintf("sim-splice: reconfig_tail_ms is p%g of %d reconfigurations", pct, len(w.reconfigMs)),
			fmt.Sprintf("sim-splice: %d sessions, %d bytes delivered before the stop", len(w.sessions), w.stopBytes),
		},
	}
}
