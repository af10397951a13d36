// Botnet-for-rent: the Section IV-E business flow. Mallory (the
// botmaster) signs a rental token for Trudy containing her public key,
// an expiry, and a command whitelist; bots verify the whole chain and
// execute exactly the commands the token allows, for exactly as long as
// it is valid — with no further involvement from Mallory.
//
//	go run ./examples/rental
package main

import (
	"crypto/ed25519"
	"fmt"
	"io"
	"os"
	"time"

	"onionbots/internal/botcrypto"
	"onionbots/internal/core"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rental: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	bn, err := core.NewBotNet(31, 20, core.BotConfig{})
	if err != nil {
		return err
	}
	if err := bn.Grow(8, nil); err != nil {
		return err
	}
	bn.Run(6 * time.Minute)

	// Trudy generates a keypair and Mallory signs her a 24-hour token
	// whitelisted for "spam" and "mine" only.
	trudyPub, trudyPriv, err := ed25519.GenerateKey(botcrypto.NewDRBG([]byte("trudy")))
	if err != nil {
		return err
	}
	now := bn.Net.Now()
	token := botcrypto.IssueToken(bn.Master.SignPriv(), trudyPub,
		now.Add(24*time.Hour), []string{"spam", "mine"})
	fmt.Fprintf(w, "token issued: whitelist %v, expires %s\n", token.Whitelist,
		token.Expiry.Format(time.RFC3339))

	inject := func(cmd *core.Command) {
		env := &core.Envelope{Type: core.MsgBroadcast, TTL: 8, Payload: cmd.Encode()}
		copy(env.MsgID[:], botcrypto.NewDRBG(cmd.Sig).Bytes(16))
		bn.AliveBots()[0].Inject(env)
		bn.Run(2 * time.Minute)
	}

	// A whitelisted rented command: executes everywhere.
	spam := &core.Command{Name: "spam", Args: []byte("pills"), IssuedAt: bn.Net.Now()}
	spam.Nonce[0] = 1
	spam.SignRenter(trudyPriv, token)
	inject(spam)
	fmt.Fprintf(w, "rented 'spam' executed on %d/8 bots\n", bn.ExecutedCount("spam"))

	// Off-whitelist: Trudy tries a DDoS she did not pay for.
	ddos := &core.Command{Name: "ddos", Args: []byte("example.com"), IssuedAt: bn.Net.Now()}
	ddos.Nonce[0] = 2
	ddos.SignRenter(trudyPriv, token)
	inject(ddos)
	fmt.Fprintf(w, "rented 'ddos' (not whitelisted) executed on %d/8 bots\n", bn.ExecutedCount("ddos"))

	// After expiry: the token is dead, no signature can revive it.
	bn.Run(25 * time.Hour)
	late := &core.Command{Name: "mine", IssuedAt: bn.Net.Now()}
	late.Nonce[0] = 3
	late.SignRenter(trudyPriv, token)
	inject(late)
	fmt.Fprintf(w, "rented 'mine' after expiry executed on %d/8 bots\n", bn.ExecutedCount("mine"))

	// The master's own commands need no token.
	master := bn.Master.NewCommand("update", nil)
	inject(master)
	fmt.Fprintf(w, "master 'update' executed on %d/8 bots\n", bn.ExecutedCount("update"))
	return nil
}
