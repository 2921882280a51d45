package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/app"
	"repro/internal/lab"
	"repro/internal/mbox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// sim-http sizing: the Figure 10 Dysco configuration with four
// middleboxes, at a scale where one repetition takes a few host seconds.
const (
	httpConns    = 100                    // persistent closed-loop connections
	httpRespSize = 600                    // response body bytes (Figure 10's small object)
	httpStagger  = 50 * time.Millisecond  // connections open at seeded offsets within this
	httpRamp     = 100 * time.Millisecond // virtual warm-up inside set-up
	httpWindow   = 250 * time.Millisecond // timed virtual window
	httpMboxes   = 4
)

// httpWorld is the sim-http testbed: one client, four forwarding Dysco
// middleboxes in a line, one HTTP server.
type httpWorld struct {
	env    *lab.Env
	client *lab.Node
	server *lab.Node
	nodes  []*lab.Node
	srv    *app.HTTPServer
	gens   []*app.LoadGen
	conns  []*tcp.Conn // both ends of every connection, for their Stats
	before uint64      // requests completed when the timed window opened
}

func runSimHTTP(b *bench) error {
	return runSimReps(b, buildHTTP)
}

// lanLink is the testbed access link: 10 Gbps with LAN-scale propagation.
func lanLink() netsim.LinkConfig {
	return netsim.LinkConfig{Delay: 20 * time.Microsecond, Bandwidth: netsim.Gbps(10)}
}

// hostCosts models the testbed's multi-core end hosts: per-packet kernel
// costs low enough that links, not host CPUs, bound throughput.
func hostCosts(h *netsim.Host) {
	h.Cost = netsim.CostModel{
		RecvPacket:    300 * time.Nanosecond,
		SendPacket:    300 * time.Nanosecond,
		ChecksumPerKB: 100 * time.Nanosecond,
		ForwardPacket: 200 * time.Nanosecond,
	}
}

// driverCosts models a Dysco host's kernel-module fast path: plain
// forwarding cost per packet plus a hash lookup and incremental checksum
// per rewrite.
func driverCosts(n *lab.Node) {
	n.Host.Cost = netsim.CostModel{
		RecvPacket:    150 * time.Nanosecond,
		SendPacket:    150 * time.Nanosecond,
		ChecksumPerKB: 100 * time.Nanosecond,
		ForwardPacket: 200 * time.Nanosecond,
	}
	n.Agent.Cfg.RewriteCost = 100 * time.Nanosecond
}

func buildHTTP(seed int64, tr *tracer) simWorld {
	env := lab.NewEnv(seed)
	w := &httpWorld{env: env, srv: &app.HTTPServer{RequestCost: 10 * time.Microsecond}}
	w.client = env.AddNode("client", lab.HostOptions{Link: lanLink(), Stack: true, Agent: true})
	var mboxes []*lab.Node
	for i := 0; i < httpMboxes; i++ {
		mboxes = append(mboxes, env.AddNode(fmt.Sprintf("mbox%d", i+1),
			lab.HostOptions{Link: lanLink(), App: &mbox.Forwarder{}}))
	}
	w.server = env.AddNode("server", lab.HostOptions{Link: lanLink(), Stack: true, Agent: true})
	prev := w.client
	for _, m := range mboxes {
		env.Net.Connect(prev.Host, m.Host, lanLink())
		prev = m
	}
	env.Net.Connect(prev.Host, w.server.Host, lanLink())
	env.Net.ComputeRoutes()
	env.ChainPolicy(w.client, 80, mboxes...)
	for _, h := range env.Net.Hosts() {
		hostCosts(h)
	}
	w.nodes = append(append([]*lab.Node{w.client}, mboxes...), w.server)
	for _, n := range w.nodes {
		driverCosts(n)
	}
	w.srv.Serve(w.server.Stack, 80)

	// The seed places each connection's open inside the stagger window,
	// which sets how the closed loops interleave for the whole run.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < httpConns; i++ {
		at := sim.Time(rng.Int63n(int64(httpStagger)))
		env.Eng.At(at, func() {
			id := tr.begin("app.NewLoadGen")
			w.gens = append(w.gens, app.NewLoadGen(w.client.Stack, w.server.Addr(), 80, 1, httpRespSize))
			tr.end(id)
		})
	}
	id := tr.begin("lab.Env.RunFor")
	env.RunFor(httpRamp)
	tr.end(id)
	w.before = w.completed()
	w.conns = w.findConns()
	return w
}

// findConns returns both ends of every client-server connection. LoadGen
// keeps its connections to itself, so they are looked up by tuple in the
// two stacks over the whole port range.
func (w *httpWorld) findConns() []*tcp.Conn {
	var out []*tcp.Conn
	cli, srv := w.client.Addr(), w.server.Addr()
	for p := 1; p <= 0xffff; p++ {
		port := packet.Port(p)
		if c := w.client.Stack.Find(packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: cli, DstIP: srv, SrcPort: port, DstPort: 80}); c != nil {
			out = append(out, c)
		}
		if c := w.server.Stack.Find(packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: srv, DstIP: cli, SrcPort: 80, DstPort: port}); c != nil {
			out = append(out, c)
		}
	}
	return out
}

func (w *httpWorld) lab() *lab.Env     { return w.env }
func (w *httpWorld) horizon() sim.Time { return httpWindow }

func (w *httpWorld) completed() uint64 {
	var n uint64
	for _, g := range w.gens {
		n += g.Completed
	}
	return n
}

func (w *httpWorld) errors() uint64 {
	var n uint64
	for _, g := range w.gens {
		n += g.Errors
	}
	return n
}

func (w *httpWorld) counters() map[string]uint64 {
	c := map[string]uint64{}
	netCounters(w.env.Net, c)
	agentCounters(w.nodes, c)
	for _, conn := range w.conns {
		c["tcp.retransmits"] += conn.Stats.Retransmits
		c["tcp.timeouts"] += conn.Stats.Timeouts
	}
	return c
}

func (w *httpWorld) finish(b *bench) simOutcome {
	done := w.completed() - w.before
	errs := w.errors()
	b.check(len(w.gens) == httpConns, "opened %d of %d connections", len(w.gens), httpConns)
	b.check(len(w.conns) == 2*httpConns, "found %d connection ends, want %d", len(w.conns), 2*httpConns)
	b.check(done > 0, "no request completed in the window")
	b.check(w.srv.Requests >= w.completed(), "server answered %d requests, client completed %d", w.srv.Requests, w.completed())
	var stats []any
	for _, h := range w.env.Net.Hosts() {
		stats = append(stats, h.Name, h.Stats)
	}
	for _, n := range w.nodes {
		stats = append(stats, n.Agent.Stats)
	}
	return simOutcome{
		virt:      map[string]float64{"http_rps": float64(done) / httpWindow.Seconds()},
		units:     map[string]string{"http_rps": "1/s"},
		digest:    digestOf(w.env.Eng.Processed, w.env.Eng.Now(), w.completed(), errs, w.srv.Requests, stats),
		attempted: int64(done + errs),
		failed:    int64(errs),
		notes:     []string{fmt.Sprintf("sim-http: %d requests in the %v window, %d errors", done, httpWindow, errs)},
	}
}
