package config

import (
	"errors"
	"fmt"

	"dagguise/internal/mem"
	"dagguise/internal/rdag"
)

// Typed validation errors for multi-channel configurations, so callers
// (CLI flag parsing, fleet manifest loading) can distinguish operator
// mistakes without string matching.
var (
	// ErrZeroChannels rejects a configuration with no memory channels.
	ErrZeroChannels = errors.New("config: multi-channel config needs at least one channel")
	// ErrDomainsExceedRouting rejects more security domains than the
	// channel router can address (mem.RoutingWidth, minus the reserved
	// domain 0).
	ErrDomainsExceedRouting = errors.New("config: domain count exceeds routing width")
	// ErrChannelSpecMismatch rejects a per-channel defense-rDAG list whose
	// length does not match the channel count.
	ErrChannelSpecMismatch = errors.New("config: per-channel defense specs do not match channel count")
)

// MultiChannelConfig describes the datacenter-scale machine the fleet
// simulates: N independent memory channels (each with its own controller,
// DRAM device and, under DAGguise or Camouflage, one shaper per protected
// tenant), shared by hundreds of mutually distrusting security domains. A
// domain's requests hash deterministically across the channels via
// mem.RouteChannel, so every shard of a sweep agrees on the placement.
type MultiChannelConfig struct {
	// Scheme selects the protection mechanism on every channel.
	Scheme Scheme
	// Channels is the number of independent memory channels/controllers.
	Channels int
	// Domains is the number of concurrent security domains (tenants).
	// Tenant i occupies mem.Domain(i+1); domain 0 stays reserved.
	Domains int
	// Protected is how many leading tenants are protected victims, shaped
	// under DAGguise and Camouflage and each given its own slot group under
	// FS, FS-BTA and TP, whose intensity carries the secret in twin runs.
	Protected int
	// QueueDepth is the per-domain transaction-queue partition depth on
	// each controller (every scheme but insecure); it also sizes the shared
	// queue for the insecure baseline (QueueDepth entries per domain).
	QueueDepth int
	// ShaperDepth is the private shaper queue depth per (channel,
	// protected tenant) pair.
	ShaperDepth int
	// ChannelDefenses holds one defense-rDAG template per channel, indexed
	// by channel. Required (len == Channels) when Scheme is DAGguise;
	// otherwise it must be empty or match the channel count.
	ChannelDefenses []rdag.Template
	// Geometry is the per-channel DRAM organisation; Geometry.Channels
	// must be 1 (each channel unit owns a single-channel mapper — the
	// cross-channel spread is the router's job, not the address mapper's).
	Geometry mem.Geometry
	// Timing is the DRAM timing shared by all channels.
	Timing DRAMTiming
}

// DefaultMultiChannel returns a fleet machine with the Table 2 per-channel
// geometry and timing, the given channel and tenant counts, four protected
// victims (capped at the domain count), and the evaluation's default
// defense rDAG replicated on every channel.
func DefaultMultiChannel(channels, domains int, scheme Scheme) MultiChannelConfig {
	base := Default(2, scheme)
	base.Geometry.Channels = 1
	protected := 4
	if protected > domains {
		protected = domains
	}
	cfg := MultiChannelConfig{
		Scheme:      scheme,
		Channels:    channels,
		Domains:     domains,
		Protected:   protected,
		QueueDepth:  8,
		ShaperDepth: 8,
		Geometry:    base.Geometry,
		Timing:      base.Timing,
	}
	if scheme == DAGguise {
		banks := base.Geometry.Ranks * base.Geometry.Banks
		cfg.ChannelDefenses = make([]rdag.Template, channels)
		for ch := range cfg.ChannelDefenses {
			cfg.ChannelDefenses[ch] = rdag.Template{
				Sequences: 4, Weight: 300, WriteRatio: 0.001, Banks: banks,
			}
		}
	}
	return cfg
}

// ClosedRow reports whether the channels run the closed-row policy; like
// the single-channel machine, secure schemes require it so row-buffer
// state cannot carry the victim's address locality.
func (c MultiChannelConfig) ClosedRow() bool {
	return c.Scheme != Insecure && c.Scheme != Camouflage
}

// Validate checks the fleet configuration, returning the typed sentinel
// errors above (wrapped with detail) for the operator-facing failure modes.
func (c MultiChannelConfig) Validate() error {
	if c.Channels < 1 {
		return fmt.Errorf("%w: got %d", ErrZeroChannels, c.Channels)
	}
	if c.Domains < 1 {
		return fmt.Errorf("config: need at least one domain, got %d", c.Domains)
	}
	if c.Domains > mem.RoutingWidth-1 {
		return fmt.Errorf("%w: %d domains, routing width %d (domain 0 reserved)",
			ErrDomainsExceedRouting, c.Domains, mem.RoutingWidth)
	}
	if c.Protected < 0 || c.Protected > c.Domains {
		return fmt.Errorf("config: protected tenants %d outside [0, %d]", c.Protected, c.Domains)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("config: queue depth must be positive, got %d", c.QueueDepth)
	}
	if c.ShaperDepth < 1 {
		return fmt.Errorf("config: shaper depth must be positive, got %d", c.ShaperDepth)
	}
	if c.Geometry.Channels != 1 {
		return fmt.Errorf("config: per-channel geometry must have Channels=1, got %d (cross-channel spread is the router's job)", c.Geometry.Channels)
	}
	if _, err := mem.NewMapper(c.Geometry); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	switch {
	case c.Scheme == DAGguise && len(c.ChannelDefenses) != c.Channels:
		return fmt.Errorf("%w: scheme %s needs %d defense templates, got %d",
			ErrChannelSpecMismatch, c.Scheme, c.Channels, len(c.ChannelDefenses))
	case len(c.ChannelDefenses) != 0 && len(c.ChannelDefenses) != c.Channels:
		return fmt.Errorf("%w: %d templates for %d channels",
			ErrChannelSpecMismatch, len(c.ChannelDefenses), c.Channels)
	}
	banks := c.Geometry.Ranks * c.Geometry.Banks
	for ch, tpl := range c.ChannelDefenses {
		if err := tpl.Validate(); err != nil {
			return fmt.Errorf("config: channel %d defense: %w", ch, err)
		}
		if tpl.Banks != banks {
			return fmt.Errorf("%w: channel %d defense covers %d banks, channel has %d",
				ErrChannelSpecMismatch, ch, tpl.Banks, banks)
		}
	}
	return nil
}
