package confmask

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"
)

// outputPins holds the sha256 of the rendered Anonymize output (see
// outputDigest) with DefaultOptions at seeds 1–3, for the eight Table 2
// networks and MultiRegion10x30. Unlike the identity tests, which compare
// two runs of the same build (Parallelism 1 vs N, resumed vs
// uninterrupted), these values are fixed across commits: a change that
// alters any rendered byte of any pinned run fails here, however it
// alters it.
var outputPins = map[string][3]string{
	"Enterprise": {
		"494f3786292502258a2f542d06cb47000116f3e4330f67880d77f3eb83ea2b88",
		"ed74bf3f3f1f9ead53d82def38802260d6019ccfea9612d84175479c6bd1b854",
		"34a78aead11f5c5457700ab169a952117839eaf7408a91f1fe32539b2bd3ab32",
	},
	"University": {
		"a6d2eacac23c3c1446ec5873da28b63ca46e0016a5d691a5faa177b56682599f",
		"b029a43cc61e5e020518f66daa1ac05248570eae91df086f7c0a6cd28e67be97",
		"e5632ee2a9a21c12cdc4731fc499aad49c008831771ea3f99f6fc9f812715e1d",
	},
	"Backbone": {
		"827462a022c86b85fc4fb5c7bb0dba84a2ad2a4f7ad781c8833031a81d530ccb",
		"d42b294567a4922523bb0093659c1f99b4f3515d136d51130729113af951b1d3",
		"71f9e9b42ca4fc2bccd396bc663f26d896f9d1bf3af04d55826df59c1df08190",
	},
	"Bics": {
		"988ce5c23dd0a345d9e6d2147d96d4f3aea240962363e79e7d17cfae268fd79e",
		"28dfb28762b6629a1abf277a8da9d596d34c9c9ca3d285a1832ee48f2b5b4906",
		"3214f285b6534d9ce6f6213b0f07be3064a44ffc9b90b0bc08fc9bb8c4d65380",
	},
	"Columbus": {
		"465302e6ffb7dee92fdb174075a7750ae8a3da306e7326da66cd9e0cb5ac8024",
		"df2423249d6a9aa83900022e8e7821b712816711c0f3e33d146ffb025e169481",
		"c8c099dad2c59da9f0bbc6fae8fb558bbfb6a1d51c2c41632238fcca29653066",
	},
	"USCarrier": {
		"37105e95812f83c3003b476362e367d855921c21db9ae1cfba7cffbdf906a54e",
		"0f7207c5c95bcc5c02d270894ed0f1d94683e194b0fdc1e9494485174a779bbb",
		"14fb2e838e8604567c71e385a56aab38a607dbba06af52e0a8cca7c0bc8f8514",
	},
	"FatTree04": {
		"1292df334ea74f95bdc3d760aa16c9e59a8a26c278fe71671a7392fb68594c58",
		"9b0243278236d79d8e9992c1edd63057c18dfae279468c4299fbdc4552fccef1",
		"ae5683a852fb70afcd0b1d13b8ee2cab9242396912dd3094850fc5bc863956bb",
	},
	"FatTree08": {
		"1f528612288aa4273f2cb005e57bf325c5cd30f37faf6b7af9840decc10d3110",
		"17f706b79adf25c44cd6912519fc3d58a7e2bcd6fc8ea358fb78698479a2387f",
		"001c491bc803a84b83ef9b568ce7318bc834046e6c9a4ced160be54d31b9db66",
	},
	"MultiRegion10x30": {
		"d0913b3f2504fa7f90f60b7b81abc5ece3293682d0b8f323993ba607d11668f3",
		"5e71e2ced1cc72f5fece9030455a0607a89dfb0bf382379589582e235c90e054",
		"6e659788d74ffe1a9d473217efb39b121510cc2b98342723307f4fabbe8b83d2",
	},
}

// outputDigest hashes a rendered configuration set in device-name order,
// each device contributing its name and its text, both NUL-terminated.
func outputDigest(configs map[string]string) string {
	names := make([]string, 0, len(configs))
	for n := range configs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s\x00%s\x00", n, configs[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOutputPins anonymizes every pinned network at seeds 1–3 and
// compares the output digest against the committed value.
// MultiRegion10x30 is skipped under -short.
func TestOutputPins(t *testing.T) {
	names := append(ExampleNetworks(), "MultiRegion10x30")
	if len(names) != len(outputPins) {
		t.Fatalf("pinned %d networks, want %d", len(outputPins), len(names))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			if name == "MultiRegion10x30" && testing.Short() {
				t.Skip("scale network")
			}
			want, ok := outputPins[name]
			if !ok {
				t.Fatalf("no pin for %s", name)
			}
			configs := exampleConfigs(t, name)
			for seed := int64(1); seed <= 3; seed++ {
				opts := DefaultOptions()
				opts.Seed = seed
				out, _, err := Anonymize(configs, opts)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if got := outputDigest(out); got != want[seed-1] {
					t.Errorf("seed %d: output sha256 %s, pinned %s", seed, got, want[seed-1])
				}
			}
		})
	}
}
