package bench

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins the host profiles that the -cpuprofile and
// -memprofile flags of gcbench and gctrace ask for; an empty name asks for
// none. The CPU profile runs from here until stop; stop then writes the
// allocation profile (everything allocated since process start, in-use
// figures taken after a final collection). A memory profile samples every
// allocation from here on (runtime.MemProfileRate = 1): at Go's default of
// one sample per 512 KiB it misses the small per-request objects that the
// host-allocation gate counts. The caller calls stop exactly once, when the
// measured work is done.
func StartProfiles(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close() // nothing was written: the start error is the one to report
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if memFile != "" {
		runtime.MemProfileRate = 1
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if memFile == "" {
			return nil
		}
		f, err := os.Create(memFile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close() // the write error is the one to report
			return fmt.Errorf("-memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		return nil
	}, nil
}
