package core

// Rand is the xorshift64* generator behind every seeded stream in the
// repository: the fault and crash plans here, the memory-pressure squeeze,
// and the workload generators. The committed baselines pin its streams.
type Rand uint64

// NewRand returns a generator for seed, scrambled before the state is forced
// odd: a bare seed|1 would collapse adjacent even/odd seeds into one stream.
func NewRand(seed uint64) *Rand {
	x := Rand(seed*0x9E3779B97F4A7C15 | 1)
	return &x
}

// Next advances the generator and returns its next value.
func (x *Rand) Next() uint64 {
	v := uint64(*x)
	v ^= v >> 12
	v ^= v << 25
	v ^= v >> 27
	*x = Rand(v)
	return v * 0x2545F4914F6CDD1D
}

// Float returns a uniform float in [0,1), its product rounded explicitly.
func (x *Rand) Float() float64 {
	return float64(float64(x.Next()>>11) / (1 << 53))
}
