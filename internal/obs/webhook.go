package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Notifier delivers alert edges to an HTTP webhook as JSON POSTs from a
// dedicated goroutine, so alert evaluation on the hot ingest path never
// blocks on the network. Delivery is at-most-once per edge with bounded
// retries and capped exponential backoff; a full queue drops the edge
// and counts it rather than stalling the producer.
type Notifier struct {
	url     string
	client  *http.Client
	ch      chan Alert
	done    chan struct{}
	wg      sync.WaitGroup
	retries int
	backoff time.Duration
	logf    func(format string, args ...any)

	delivered atomic.Uint64
	failed    atomic.Uint64
	dropped   atomic.Uint64
}

// NotifierConfig tunes a Notifier; zero values take defaults.
type NotifierConfig struct {
	// Retries is how many re-attempts follow a failed POST (default 3).
	Retries int
	// Backoff is the first retry delay, doubling per attempt up to
	// 8x (default 250ms).
	Backoff time.Duration
	// Queue is the pending-edge buffer (default 64).
	Queue int
	// Timeout bounds one POST (default 5s).
	Timeout time.Duration
	// Logf, when set, receives delivery failures.
	Logf func(format string, args ...any)
}

// NewNotifier starts a notifier posting to url. Empty url returns nil,
// and a nil *Notifier is a no-op everywhere, so callers wire the flag
// value straight through.
func NewNotifier(url string, cfg NotifierConfig) *Notifier {
	if url == "" {
		return nil
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 250 * time.Millisecond
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	n := &Notifier{
		url:     url,
		client:  &http.Client{Timeout: cfg.Timeout},
		ch:      make(chan Alert, cfg.Queue),
		done:    make(chan struct{}),
		retries: cfg.Retries,
		backoff: cfg.Backoff,
		logf:    cfg.Logf,
	}
	n.wg.Add(1)
	go n.run()
	return n
}

// Notify enqueues an alert edge for delivery without blocking; when the
// queue is full the edge is dropped and counted. No-op on nil.
func (n *Notifier) Notify(a Alert) {
	if n == nil {
		return
	}
	select {
	case n.ch <- a:
	default:
		n.dropped.Add(1)
	}
}

// Close stops the notifier after draining edges already enqueued.
// No-op on nil.
func (n *Notifier) Close() {
	if n == nil {
		return
	}
	close(n.done)
	n.wg.Wait()
}

// Delivered, Failed and Dropped report delivery outcomes.
func (n *Notifier) Delivered() uint64 {
	if n == nil {
		return 0
	}
	return n.delivered.Load()
}

func (n *Notifier) Failed() uint64 {
	if n == nil {
		return 0
	}
	return n.failed.Load()
}

func (n *Notifier) Dropped() uint64 {
	if n == nil {
		return 0
	}
	return n.dropped.Load()
}

func (n *Notifier) run() {
	defer n.wg.Done()
	for {
		select {
		case a := <-n.ch:
			n.deliver(a)
		case <-n.done:
			// Drain what is already queued, then stop.
			for {
				select {
				case a := <-n.ch:
					n.deliver(a)
				default:
					return
				}
			}
		}
	}
}

// deliver POSTs one edge, retrying transient failures with capped
// exponential backoff.
func (n *Notifier) deliver(a Alert) {
	body, err := json.Marshal(a)
	if err != nil {
		n.failed.Add(1)
		return
	}
	delay := n.backoff
	maxDelay := 8 * n.backoff
	var lastErr error
	for attempt := 0; attempt <= n.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(delay):
			case <-n.done:
				// Shutting down: one final immediate attempt, no wait.
			}
			delay *= 2
			if delay > maxDelay {
				delay = maxDelay
			}
		}
		lastErr = n.post(body)
		if lastErr == nil {
			n.delivered.Add(1)
			return
		}
	}
	n.failed.Add(1)
	if n.logf != nil {
		n.logf("obs: webhook delivery failed after %d attempts: %v", n.retries+1, lastErr)
	}
}

func (n *Notifier) post(body []byte) error {
	resp, err := n.client.Post(n.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("webhook returned %s", resp.Status)
	}
	return nil
}
