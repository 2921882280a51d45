package dataplane

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
)

// TestEngineMatchesRefSequential is the deterministic half of the
// differential oracle: no churn, so every frame has exactly one correct
// outcome and must match the struct pipeline byte for byte.
func TestEngineMatchesRefSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		if err := RunRawDiff(RawDiffConfig{
			Seed: 42, Flows: 128, PacketsPerFlow: 6,
			Engine: Config{Workers: workers, Shards: 16, RingSize: 256, Batch: 8},
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestEngineDiffUnderChurn is the same-key half of the raw oracle: frames
// addressed to churned keys race concurrent Install/Remove calls on those
// keys, and each must come back untouched or rewritten by exactly one
// installed version, while stable flows still match the struct pipeline
// byte for byte. Run under -race in CI.
func TestEngineDiffUnderChurn(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234} {
		for _, workers := range []int{1, 2, 4} {
			for _, noOpts := range []bool{false, true} {
				name := fmt.Sprintf("seed=%d/workers=%d/noOpts=%v", seed, workers, noOpts)
				t.Run(name, func(t *testing.T) {
					cfg := RawDiffConfig{
						Seed: seed, Flows: 96, PacketsPerFlow: 8, Malformed: 20,
						ChurnKeys: 48, Churners: 3, ChurnOps: 600,
						Engine: Config{Workers: workers, Shards: 8, RingSize: 128, Batch: 16,
							DisableOptionTranslation: noOpts},
					}
					if err := RunRawDiff(cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestRawChurnCheckRejectsTorn hands the same-key check a frame rewritten
// by a mixed-version entry — version v's tuple with version v+1's seq
// delta — and demands a rejection, so the check is shown able to fail
// without depending on a lucky schedule. The same frame rewritten by one
// whole version must pass.
func TestRawChurnCheckRejectsTorn(t *testing.T) {
	key := churnKey(3)
	fed := churnFrame(3)
	for _, opts := range []bool{true, false} {
		for _, v := range []uint64{1, 77, churnVersionMax - 1} {
			rewrite := func(torn bool) []byte {
				p, err := packet.Parse(fed)
				if err != nil {
					t.Fatal(err)
				}
				churnRule(key, v+1).ApplyIngress(p, opts)
				if torn {
					p.Tuple = churnTo(key, v)
				}
				return p.Serialize()
			}
			if rw, err := checkChurnFrame(fed, rewrite(false), opts); err != nil || !rw {
				t.Fatalf("v=%d opts=%v: whole-version rewrite: rewritten=%v err=%v", v+1, opts, rw, err)
			}
			if _, err := checkChurnFrame(fed, rewrite(true), opts); err == nil {
				t.Fatalf("v=%d opts=%v: mixed-version rewrite accepted", v, opts)
			}
		}
		if rw, err := checkChurnFrame(fed, append([]byte(nil), fed...), opts); err != nil || rw {
			t.Fatalf("opts=%v: untouched frame: rewritten=%v err=%v", opts, rw, err)
		}
	}
}

// TestEngineAgainstAgentKernel pins the engine to the simulator: a frame
// run through Engine.ProcessRawInline and a packet run through the same
// core.Rule the agent executes must end up byte-identical.
func TestEngineAgainstAgentKernel(t *testing.T) {
	rule := core.Rule{
		To:     packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6},
		AckAdd: -12345, TSEcrAdd: -77, WinFrom: 2, WinTo: 1,
	}
	eng := New(Config{Workers: 1, Shards: 1})
	ft := packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	eng.Table().Install(ft, &Entry{Dir: Egress, Rule: rule})

	p := packet.NewTCP(ft, packet.FlagACK, 100, 20000, make([]byte, 64))
	p.Window = 4096
	p.Opts.TS = &packet.Timestamp{Val: 11, Ecr: 22}
	p.Opts.SACK = []packet.SACKBlock{{Start: 21000, End: 22000}}
	frame := p.Serialize()
	if v := eng.ProcessRawInline(frame); v != Rewritten {
		t.Fatalf("verdict = %v, want Rewritten", v)
	}
	rule.ApplyEgress(p, true)
	if want := p.Serialize(); !bytes.Equal(frame, want) {
		t.Fatalf("engine diverged from kernel:\n  engine %x\n  kernel %x", frame, want)
	}
}

// TestEngineDrainsOnStop: every frame fed before Stop is processed,
// including the malformed ones FeedRaw routes to worker 0, and each
// lands in the right counter.
func TestEngineDrainsOnStop(t *testing.T) {
	eng := New(Config{Workers: 2, Shards: 4, RingSize: 64, Batch: 4})
	for i := 0; i < 50; i++ {
		eng.Table().Install(testTuple(i), testEntry(i))
	}
	eng.Start()
	const total = 5000
	var fed, matched, malformed uint64
	for i := 0; i < total; i++ {
		frame := packet.NewTCP(testTuple(i%100), packet.FlagACK, uint32(i), 0, nil).Serialize()
		switch {
		case i%7 == 0:
			frame = frame[:len(frame)-1]
			malformed++
		case i%100 < 50:
			matched++
		}
		for !eng.FeedRaw(frame) {
			runtime.Gosched()
		}
		fed++
	}
	eng.Stop()
	st := eng.Stats()
	if st.Processed != fed || st.Rejected != malformed || st.Rewritten != matched {
		t.Fatalf("processed %d rejected %d rewritten %d; want %d, %d, %d",
			st.Processed, st.Rejected, st.Rewritten, fed, malformed, matched)
	}
}
