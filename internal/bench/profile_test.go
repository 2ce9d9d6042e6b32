package bench

import (
	"path/filepath"
	"runtime"
	"testing"
)

// TestMemProfileSamplesEveryAllocation: asking for a memory profile sets
// runtime.MemProfileRate to 1, so the profile sees every allocation site, and
// asking for none leaves the rate alone.
func TestMemProfileSamplesEveryAllocation(t *testing.T) {
	rate := runtime.MemProfileRate
	defer func() { runtime.MemProfileRate = rate }()
	for _, tc := range []struct {
		mem  string
		want int
	}{
		{"", rate},
		{filepath.Join(t.TempDir(), "mem.prof"), 1},
	} {
		runtime.MemProfileRate = rate
		stop, err := StartProfiles("", tc.mem)
		if err != nil {
			t.Fatal(err)
		}
		if got := runtime.MemProfileRate; got != tc.want {
			t.Errorf("memprofile %q: MemProfileRate %d, want %d", tc.mem, got, tc.want)
		}
		if err := stop(); err != nil {
			t.Fatal(err)
		}
	}
}
