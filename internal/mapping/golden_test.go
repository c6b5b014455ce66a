package mapping_test

import (
	"fmt"
	"math"
	"testing"

	"resparc/internal/bench"
	"resparc/internal/mapping"
)

// mapperGolden pins the Greedy and Annealed{Seed: 1} placements of every
// Fig 10 benchmark (built at seed 1) under DefaultConstraints, on one chip
// and on four: the objective and cost terms as float64 bits, the per-layer
// sizes and NeuroCell alignment, and the shard cuts. Any change to the cost
// model's arithmetic, its pipeline simulation or the search shows up here
// as a one-line diff per placement.
var mapperGolden = map[string]string{
	"svhn-mlp/greedy/x1":    "obj=4000000000000000 e=3eb0125a24b73540 l=3eda419fb28d5b73 link=0/0 mpes=184 ncs=12 sizes=[64 64 64 64] align=[0 0 0 0] cuts=[]",
	"svhn-mlp/annealed/x1":  "obj=3ffbee0a8def6998 e=3eab3393fe02c56b l=3ed79d2a9db86232 link=0/0 mpes=66 ncs=5 sizes=[128 128 128 128] align=[0 1 0 1] cuts=[]",
	"svhn-mlp/greedy/x4":    "obj=400021ccbb9cc916 e=3eb13528c19e673c l=3eda3c414ed4cf50 link=3e722ce9ce731fc6/470 mpes=184 ncs=12 sizes=[64 64 64 64] align=[0 0 0 0] cuts=[1 2 3]",
	"svhn-mlp/annealed/x4":  "obj=3ffc7ba01dfbcebd e=3ead793137d12964 l=3ed7cd7c1f354f6d link=3e722ce9ce731fc6/470 mpes=66 ncs=5 sizes=[128 128 128 128] align=[0 1 0 1] cuts=[1 2 3]",
	"svhn-cnn/greedy/x1":    "obj=4000000000000000 e=3eeb91036c24ad79 l=3ee7dd974a5ef3d6 link=0/0 mpes=1734 ncs=109 sizes=[64 64 64 64 64 64] align=[0 0 0 0 0 0] cuts=[]",
	"svhn-cnn/annealed/x1":  "obj=3ffe9a4454ccbc48 e=3eec0151d5c99fc3 l=3ee566c4852aa1bf link=0/0 mpes=1997 ncs=125 sizes=[32 64 64 32 64 128] align=[0 1 0 0 0 0] cuts=[]",
	"svhn-cnn/greedy/x4":    "obj=400080844b179122 e=3ef26703f55f5d16 l=3f0135069cfd265c link=3ed27a08fd341965/30583 mpes=1734 ncs=109 sizes=[64 64 64 64 64 64] align=[0 0 0 0 0 0] cuts=[1 2 3]",
	"svhn-cnn/annealed/x4":  "obj=3ff14c92731d1452 e=3eec30286b007005 l=3ee59c746a601b1e link=3e790485f65c11c4/647 mpes=2015 ncs=126 sizes=[32 64 64 32 64 128] align=[0 0 1 0 1 0] cuts=[3 4 5]",
	"mnist-mlp/greedy/x1":   "obj=4000000000000000 e=3ea6f9eb0f513cf7 l=3ed873ea328e47ac link=0/0 mpes=126 ncs=8 sizes=[64 64 64 64] align=[0 0 0 0] cuts=[]",
	"mnist-mlp/annealed/x1": "obj=3ffd9467e629ffa8 e=3ea39459868a12bb l=3ed85e70a3ac1720 link=0/0 mpes=35 ncs=3 sizes=[128 128 128 128] align=[0 0 0 0] cuts=[]",
	"mnist-mlp/greedy/x4":   "obj=400027ecf8c6e45c e=3ea8eb619929f282 l=3ed859123ff38afd link=3e6f17689d8b58ae/402 mpes=126 ncs=8 sizes=[64 64 64 64] align=[0 0 0 0] cuts=[1 2 3]",
	"mnist-mlp/annealed/x4": "obj=3ffe1e0032dde277 e=3ea585d01062c846 l=3ed853b3dc3afeda link=3e6f17689d8b58ae/402 mpes=35 ncs=3 sizes=[128 128 128 128] align=[0 0 0 0] cuts=[1 2 3]",
	"mnist-cnn/greedy/x1":   "obj=4000000000000000 e=3edd171a14a7a40d l=3ee1a5c4cb20a53c link=0/0 mpes=1056 ncs=66 sizes=[64 64 64 64 64 64] align=[0 0 0 0 0 0] cuts=[]",
	"mnist-cnn/annealed/x1": "obj=3ffdd5f2fd1b3f0a e=3ede384134c155a6 l=3edd26817408e659 link=0/0 mpes=1477 ncs=93 sizes=[32 32 64 32 64 128] align=[0 1 0 0 1 0] cuts=[]",
	"mnist-cnn/greedy/x4":   "obj=40008273f1b0a091 e=3ee384a6ef3d7507 l=3ef30c214b7f2f60 link=3ec3e46793a68c03/16463 mpes=1056 ncs=66 sizes=[64 64 64 64 64 64] align=[0 0 0 0 0 0] cuts=[1 2 3]",
	"mnist-cnn/annealed/x4": "obj=3ff2b966c1a03f12 e=3ede811a81af273a l=3edd7c67af91a88a link=3e7236533b74651d/471 mpes=1477 ncs=93 sizes=[32 32 64 32 64 128] align=[0 1 0 0 1 0] cuts=[3 4 5]",
	"cifar-mlp/greedy/x1":   "obj=4000000000000000 e=3eb58b4dae312c2c l=3ee213d3c767de0b link=0/0 mpes=242 ncs=16 sizes=[64 64 64 64 64] align=[0 0 0 0 0] cuts=[]",
	"cifar-mlp/annealed/x1": "obj=3ffa3aea9759a61c e=3eb2e93d44eb7967 l=3edb891d7586bfcd link=0/0 mpes=117 ncs=8 sizes=[128 64 128 128 64] align=[0 0 1 1 0] cuts=[]",
	"cifar-mlp/greedy/x4":   "obj=4000214bd6001870 e=3eb70aeb989ba12f l=3ee21682f944241c link=3e77f9dea6a75032/620 mpes=242 ncs=16 sizes=[64 64 64 64 64] align=[0 0 0 0 0] cuts=[1 2 3]",
	"cifar-mlp/annealed/x4": "obj=3ff9c99249ad4254 e=3eb39f2801ff5464 l=3edb38959db689c0 link=3e66bd57a27b5faa/294 mpes=87 ncs=6 sizes=[128 64 128 128 64] align=[0 0 0 0 0] cuts=[1 3 4]",
	"cifar-cnn/greedy/x1":   "obj=4000000000000000 e=3ef95a58e252e943 l=3ef261ac6d5bce07 link=0/0 mpes=3042 ncs=191 sizes=[64 64 64 64 64 64] align=[0 0 0 0 0 0] cuts=[]",
	"cifar-cnn/annealed/x1": "obj=3fff6eaf3410904a e=3efd90e48a8a8466 l=3eed5982276219a6 link=0/0 mpes=3005 ncs=188 sizes=[64 32 128 32 64 128] align=[0 0 0 0 0 0] cuts=[]",
	"cifar-cnn/greedy/x4":   "obj=4000817ee2e4914e e=3f00f7d12437f455 l=3f0f8124adb458b8 link=3ee12a92cc39fecf/56828 mpes=3042 ncs=191 sizes=[64 64 64 64 64 64] align=[0 0 0 0 0 0] cuts=[1 2 3]",
	"cifar-cnn/annealed/x4": "obj=3ff0a600f82ef43c e=3ef9768908f384f7 l=3ef23c17b34ff912 link=3e7bfebfacd9ba4e/724 mpes=3048 ncs=191 sizes=[64 64 64 32 64 128] align=[0 0 0 0 0 0] cuts=[3 4 5]",
}

func placementLine(p *mapping.Placement) string {
	align := make([]int, len(p.Layers))
	for i, l := range p.Layers {
		if l.NCAlign {
			align[i] = 1
		}
	}
	c := p.Cost
	return fmt.Sprintf("obj=%x e=%x l=%x link=%x/%d mpes=%d ncs=%d sizes=%v align=%v cuts=%v",
		math.Float64bits(c.Objective), math.Float64bits(c.EnergyJ), math.Float64bits(c.LatencyS),
		math.Float64bits(c.LinkEnergyJ), c.LinkFlits, c.MPEs, c.NCs, p.Sizes(), align, p.ShardCuts)
}

func TestMapperGolden(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			net, err := b.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 4} {
				cons := mapping.DefaultConstraints(mapping.DefaultConfig())
				cons.Shards = shards
				for _, m := range []mapping.Mapper{mapping.Greedy{}, mapping.Annealed{Seed: 1}} {
					p, err := m.Plan(net, cons)
					if err != nil {
						t.Fatal(err)
					}
					key := fmt.Sprintf("%s/%s/x%d", b.Name, m.Name(), shards)
					if got, want := placementLine(p), mapperGolden[key]; got != want {
						t.Errorf("%s:\n got %q\nwant %q", key, got, want)
					}
				}
			}
		})
	}
}
