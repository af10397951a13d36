// Quickstart: build a small OnionBot network on the simulated Tor
// substrate, push a broadcast command through the flooding mesh, take
// down a third of the bots, and watch the DDSR overlay self-heal.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"onionbots/internal/core"
	"onionbots/internal/graph"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// One simulated Tor network (20 relays), one botmaster, and a
	// deterministic seed: every run of this program prints the same
	// thing.
	bn, err := core.NewBotNet(7, 20, core.BotConfig{DMin: 3, DMax: 6})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "C&C rally address: %s\n", bn.Master.Onion())

	// Infect 15 hosts. Each new bot bootstraps from its infector's
	// peer list (hardcoded-list strategy, inclusion probability 0.5).
	if err := bn.Grow(15, nil); err != nil {
		return err
	}
	bn.Run(6 * time.Minute) // settle + one NoN gossip round

	g := bn.OverlayGraph()
	diam, _ := graph.Diameter(g)
	fmt.Fprintf(w, "overlay after formation: %d bots, %d edges, %d component(s), diameter %d\n",
		g.NumNodes(), g.NumEdges(), graph.NumComponents(g), diam)
	fmt.Fprintf(w, "botmaster registry: %d bots reported K_B at rally\n", bn.Master.NumRegistered())

	// Push a broadcast through one entry bot; flooding delivers it to
	// everyone, with every hop sealed and fixed-size.
	if err := bn.Broadcast("ddos", []byte("example.com 300s"), 1); err != nil {
		return err
	}
	bn.Run(2 * time.Minute)
	fmt.Fprintf(w, "broadcast executed on %d/15 bots\n", bn.ExecutedCount("ddos"))

	// Take down 5 bots, one at a time; survivors detect dead peers via
	// pings and repair around them using Neighbors-of-Neighbor state.
	for i := 0; i < 5; i++ {
		victim := bn.AliveBots()[0]
		bn.Takedown(victim)
		bn.Run(10 * time.Minute)
	}
	g = bn.OverlayGraph()
	fmt.Fprintf(w, "after 5 takedowns: %d bots, %d edges, %d component(s)\n",
		g.NumNodes(), g.NumEdges(), graph.NumComponents(g))

	// The C&C can still reach a specific surviving bot directly, via
	// the shared-key address schedule.
	for _, rec := range bn.Master.Records() {
		if err := bn.Master.Reach(rec, bn.Master.NewCommand("status", nil)); err == nil {
			bn.Run(time.Minute)
			fmt.Fprintf(w, "directed reach: bot %s executed 'status' (%d bot total)\n",
				rec.ID(), bn.ExecutedCount("status"))
			break
		}
	}
	return nil
}
