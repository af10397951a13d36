// SOAP mitigation: neutralize a simulated OnionBot network exactly as
// Section VI-B describes — capture one bot, crawl outward, and surround
// every discovered bot with clones hosted on a single defender machine.
//
//	go run ./examples/soapmitigation
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"onionbots/internal/core"
	"onionbots/internal/soap"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "soapmitigation: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	bn, err := core.NewBotNet(11, 20, core.BotConfig{DMin: 2, DMax: 4})
	if err != nil {
		return err
	}
	// The paper's recommended bootstrap combines hardcoded peer lists
	// with hotlists; the C&C answers rallies with known-bot addresses.
	bn.Master.HotlistSize = 3
	if err := bn.Grow(10, nil); err != nil {
		return err
	}
	bn.Run(6 * time.Minute)
	fmt.Fprintf(w, "victim botnet: 10 bots, overlay edges: %d\n", bn.OverlayGraph().NumEdges())

	if err := bn.Broadcast("spam", nil, 1); err != nil {
		return err
	}
	bn.Run(2 * time.Minute)
	fmt.Fprintf(w, "before SOAP: broadcast executed on %d/10 bots\n\n", bn.ExecutedCount("spam"))

	captured := bn.AliveBots()[0]
	fmt.Fprintf(w, "defender captures bot %s, recovers the network key,\n", captured.Onion())
	fmt.Fprintln(w, "and starts spawning clones (all on ONE machine)...")
	attacker := soap.NewAttacker(bn.Net, bn.Master.NetKey(), soap.Config{})
	attacker.Start(captured.Onion())

	for step := 1; step <= 9; step++ {
		bn.Run(30 * time.Minute)
		fmt.Fprintf(w, "step %d: discovered=%2d clones=%3d surrounded=%.0f%% contained=%.0f%%\n",
			step, len(attacker.KnownBots()), attacker.Stats().ClonesCreated,
			100*soap.CloneNeighborFraction(bn, attacker),
			100*soap.ContainmentFraction(bn, attacker))
	}

	if err := bn.Broadcast("spam2", nil, 1); err != nil {
		return err
	}
	bn.Run(2 * time.Minute)
	benign := soap.BenignOverlay(bn, attacker)
	fmt.Fprintf(w, "\nafter SOAP: broadcast executed on %d/10 bots\n", bn.ExecutedCount("spam2"))
	fmt.Fprintf(w, "benign bot-to-bot edges remaining: %d\n", benign.NumEdges())
	fmt.Fprintf(w, "C&C traffic silently dropped by clones: %d messages\n",
		attacker.Stats().MessagesBlocked)
	fmt.Fprintln(w, "the botnet is partitioned and neutralized.")
	return nil
}
