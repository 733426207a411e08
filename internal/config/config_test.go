package config

import (
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	for _, scheme := range []Scheme{Insecure, FixedService, FSBTA, TemporalPartitioning, Camouflage, DAGguise} {
		for _, cores := range []int{1, 2, 8} {
			if err := Default(cores, scheme).Validate(); err != nil {
				t.Errorf("Default(%d, %v) invalid: %v", cores, scheme, err)
			}
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SystemConfig)
		want   string
	}{
		{"zero cores", func(c *SystemConfig) { c.Cores = 0 }, "cores"},
		{"negative cores", func(c *SystemConfig) { c.Cores = -3 }, "cores"},
		{"zero clock ratio", func(c *SystemConfig) { c.Timing.ClockRatio = 0 }, "clock ratio"},
		{"negative tRC", func(c *SystemConfig) { c.Timing.TRC = -1 }, "tRC"},
		{"zero tCAS", func(c *SystemConfig) { c.Timing.TCAS = 0 }, "tCAS"},
		{"zero tBURST", func(c *SystemConfig) { c.Timing.TBURST = 0 }, "tBURST"},
		{"row cycle hazard", func(c *SystemConfig) { c.Timing.TRTP = 1000 }, "exceeds"},
		{"zero issue width", func(c *SystemConfig) { c.Core.IssueWidth = 0 }, "issue width"},
		{"negative issue width", func(c *SystemConfig) { c.Core.IssueWidth = -8 }, "issue width"},
		{"zero ROB entries", func(c *SystemConfig) { c.Core.ROBEntries = 0 }, "ROB entries"},
		{"negative ROB entries", func(c *SystemConfig) { c.Core.ROBEntries = -1 }, "ROB entries"},
		{"zero MSHRs", func(c *SystemConfig) { c.Core.MSHRs = 0 }, "MSHRs"},
		{"negative MSHRs", func(c *SystemConfig) { c.Core.MSHRs = -2 }, "MSHRs"},
		{"zero L1 size", func(c *SystemConfig) { c.L1.SizeBytes = 0 }, "L1"},
		{"zero L2 ways", func(c *SystemConfig) { c.L2.Ways = 0 }, "L2"},
		{"zero L3 line", func(c *SystemConfig) { c.L3.LineBytes = 0 }, "L3"},
		{"cache below one set", func(c *SystemConfig) {
			c.L1 = CacheLevel{SizeBytes: 64, Ways: 8, LineBytes: 64, LatencyCycles: 4}
		}, "smaller than one set"},
		{"bad geometry", func(c *SystemConfig) { c.Geometry.Banks = 0 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default(2, DAGguise)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestTimingValidateAcceptsDDR31600(t *testing.T) {
	if err := DDR31600().Validate(); err != nil {
		t.Fatal(err)
	}
}
