// Enforcement runs the §5.2 prototype idea on real sockets: TAG
// guarantees enforced by sender-side pacing over loopback TCP —
// with the enforced rates now computed by the service's own
// enforcement plane rather than hand-rolled GP/RA wiring.
//
// The Fig. 13 scenario plays out live: VM X (tier C1) and k VMs of tier
// C2 all send to VM Z (tier C2) through a shared 24 Mbps emulated
// bottleneck. The tenant is admitted through the public guarantee API
// onto a 1-slot-per-server datacenter (so Z's server downlink is the
// bottleneck), the Grant lifecycle installs it into the enforcement
// dataplane, and one control period yields the same per-flow rates the
// old hand-rolled wiring produced: X keeps its full 45% trunk share,
// the intra-tier senders split theirs, and the unreserved 10% is
// handed out in proportion to guarantees (work conservation). The
// receiver reports measured throughput per flow.
//
// (Rates are scaled down 1000× from the paper's 1 Gbps so the demo runs
// in milliseconds of CPU on loopback.)
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"cloudmirror/guarantee"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

const (
	linkMbps = 24.0 // emulated bottleneck, scaled from 1 Gbps
	trunkB   = linkMbps * 0.45
	duration = 2 * time.Second
)

func main() {
	for k := 1; k <= 3; k++ {
		runScenario(k)
	}
}

// runScenario admits the Fig. 13(a) tenant, lets the enforcement plane
// converge, and replays the enforced rates on loopback TCP.
func runScenario(k int) {
	// One VM slot per server: every VM lands on its own server, so VM
	// Z's 24 Mbps downlink is the single shared bottleneck — the
	// Fig. 13 link.
	svc, err := guarantee.New(topology.Spec{
		SlotsPerServer: 1,
		Levels:         []topology.LevelSpec{{Name: "server", Fanout: 8, Uplink: linkMbps}},
	}, guarantee.WithEnforcement(guarantee.EnforcementConfig{}))
	if err != nil {
		log.Fatal(err)
	}

	// TAG of Fig. 13(a), scaled.
	g := tag.New("fig13")
	c1 := g.AddTier("C1", 1)
	c2 := g.AddTier("C2", 1+k)
	g.AddEdge(c1, c2, trunkB, trunkB)
	g.AddSelfLoop(c2, trunkB)

	grant, err := svc.Admit(context.Background(), guarantee.Request{Graph: g})
	if err != nil {
		log.Fatal(err)
	}
	defer grant.Release()

	// The active flows: X (VM 0, tier C1) → Z (VM 1, the first C2 VM),
	// plus k backlogged intra-tier senders into Z.
	demands := []guarantee.Demand{{Src: 0, Dst: 1, Mbps: guarantee.Greedy}}
	for s := 0; s < k; s++ {
		demands = append(demands, guarantee.Demand{Src: 2 + s, Dst: 1, Mbps: guarantee.Greedy})
	}
	enf := svc.Enforcement()
	if err := enf.SetDemand(grant, demands); err != nil {
		log.Fatal(err)
	}
	if _, err := enf.Converge(0, 0); err != nil {
		log.Fatal(err)
	}
	// A report carries aggregates; the per-flow rates are read on demand.
	flows, err := enf.Pairs(grant)
	if err != nil {
		log.Fatal(err)
	}

	// Receiver Z: accept one TCP stream per flow, count bytes.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	received := make([]int64, len(flows))
	var wg sync.WaitGroup
	wg.Add(len(flows))
	go func() {
		for range flows {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer wg.Done()
				defer c.Close()
				id := make([]byte, 1)
				if _, err := io.ReadFull(c, id); err != nil {
					return
				}
				nbytes, _ := io.Copy(io.Discard, c)
				received[id[0]] = nbytes
			}(conn)
		}
	}()

	// Senders: each flow paced to its enforced allocation. After every
	// chunk the sender sleeps until the bytes sent so far are due at
	// that rate — the per-pair limiter, at the sender as in ElasticSwitch.
	var senders sync.WaitGroup
	for i := range flows {
		senders.Add(1)
		go func(id int, mbps float64) {
			defer senders.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				log.Print(err)
				return
			}
			defer conn.Close()
			if _, err := conn.Write([]byte{byte(id)}); err != nil {
				return
			}
			bytesPerSec := mbps * 1e6 / 8
			chunk := make([]byte, 16*1024)
			start := time.Now()
			for sent := 0; time.Since(start) < duration; {
				n, err := conn.Write(chunk)
				if err != nil {
					return
				}
				sent += n
				time.Sleep(time.Until(start.Add(time.Duration(float64(sent) / bytesPerSec * float64(time.Second)))))
			}
		}(i, flows[i].Rate)
	}
	senders.Wait()
	wg.Wait()

	fmt.Printf("k=%d intra-tier senders (link %.0f Mbps, X's trunk guarantee %.1f Mbps):\n",
		k, linkMbps, trunkB)
	for i, f := range flows {
		measured := float64(received[i]) * 8 / 1e6 / duration.Seconds()
		who := "X  →Z (trunk)"
		if i > 0 {
			who = fmt.Sprintf("C2.%d→Z (hose) ", i)
		}
		fmt.Printf("  %s  enforced %5.2f Mbps, measured %5.2f Mbps\n", who, f.Rate, measured)
	}
	fmt.Println()
}
