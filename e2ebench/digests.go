package main

// recorded holds, per workload and seed, the SHA-256 of the rendered
// output at full scale (see outcome.digest). Seed 1 is the default; seed
// 2 is held out. Other seeds, and the count test's reduced scale, run
// with the self-consistency checks only.
var recorded = map[string]map[int64]string{
	"repro-quick": {
		1: "14cbd3ced2422df90362be0c743307ac3d79fbc98d5b4bef24cba0f582ad1fca",
		2: "489dfc1d50bd3744a6245169043438b0a194c784644ff548f529541202e5ffd1",
	},
	"grid-cold": {
		1: "aa05597188dabea30439c130b54fb7f09a5841de4d2305801a8ae7b8de4b1058",
		2: "c02408c3d5a28b3a71f2e538cbae9fa9030604b00494884a74a838021384795a",
	},
}

// recordedDigest returns the recorded digest for b's workload and seed.
func recordedDigest(b *bench) (string, bool) {
	if b.instrScale != 1 {
		return "", false
	}
	d, ok := recorded[b.w.name][b.seed]
	return d, ok
}
