// SuperOnion: the Section VII-B construction (Figure 8: n=5 hosts, m=3
// virtual nodes each, i=2 peers per virtual node) under a SOAP
// campaign. Hosts run indistinguishable connectivity probes, detect
// soaped virtual nodes, and regrow them — staying ahead of containment
// where a basic botnet of the same size falls.
//
//	go run ./examples/superonion
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"onionbots/internal/core"
	"onionbots/internal/soap"
	"onionbots/internal/superonion"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "superonion: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	bn, err := core.NewBotNet(21, 20, core.BotConfig{DMin: 2, DMax: 4})
	if err != nil {
		return err
	}
	// Replaced virtual nodes re-bootstrap through the C&C's hotlist of
	// registered bots — clones cannot register, so the list is clean.
	bn.Master.HotlistSize = 3

	fleet, err := superonion.BuildFleet(bn, 5, superonion.Config{
		M: 3, I: 2, ProbeInterval: 2 * time.Minute,
	})
	if err != nil {
		return err
	}
	bn.Run(6 * time.Minute)
	fmt.Fprintf(w, "SuperOnion fleet: %d hosts x 3 virtual nodes = %d virtual bots\n",
		len(fleet.Hosts), fleet.VirtualCount())

	attacker := soap.NewAttacker(bn.Net, bn.Master.NetKey(),
		soap.Config{RoundInterval: 5 * time.Minute})
	attacker.Start(fleet.Hosts[0].Virtuals()[0].Onion())
	isBenign := func(onion string) bool { return !attacker.IsClone(onion) }

	fmt.Fprintln(w, "\nSOAP campaign against the fleet:")
	for q := 1; q <= 8; q++ {
		bn.Run(15 * time.Minute)
		detected, replaced := 0, 0
		for _, h := range fleet.Hosts {
			detected += h.Stats().SoapedDetected
			replaced += h.Stats().VirtualsReplaced
		}
		fmt.Fprintf(w, "t=%3dm contained hosts=%d/%d soaped-detected=%d replaced=%d clones=%d\n",
			q*15, fleet.ContainedHosts(isBenign), len(fleet.Hosts),
			detected, replaced, attacker.Stats().ClonesCreated)
	}

	fmt.Fprintln(w, "\na host is lost only while ALL of its virtual nodes are soaped at once;")
	fmt.Fprintln(w, "probe detection plus hotlist re-bootstrap keeps pulling hosts back out.")
	return nil
}
