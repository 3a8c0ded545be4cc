package image

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// goldenImage is the committed corpus world image and the digest its
// golden pins.
func goldenImage(f *testing.F) ([]byte, string) {
	f.Helper()
	data, err := os.ReadFile("../../testdata/corpus/edit-site.image")
	if err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile("../../testdata/corpus/edit-site.image.golden.json")
	if err != nil {
		f.Fatal(err)
	}
	var golden struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil || golden.Digest == "" {
		f.Fatalf("edit-site.image.golden.json: no digest (%v)", err)
	}
	return data, golden.Digest
}

// FuzzImageDecode feeds arbitrary bytes to Decode, the entry point for
// image bytes that arrive from the network (a worker's image fetch, a
// resumed job's checkpoint). Decode must never panic; decoding the
// same bytes twice must agree on the image, the digest and the error;
// and the committed good image must still decode to its pinned digest
// right afterwards, so state in the pooled gzip readers never leaks
// from one call into the next.
func FuzzImageDecode(f *testing.F) {
	good, goodDigest := goldenImage(f)
	f.Add(good)
	for _, cut := range []int{0, 14, len(good) / 2, len(good) - 9, len(good) - 1} {
		f.Add(good[:cut])
	}
	for _, off := range []int{0, 20, 40, len(good) / 2, len(good) - 6} {
		flipped := append([]byte(nil), good...)
		flipped[off] ^= 0x40
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		img1, d1, err1 := Decode(data)
		img2, d2, err2 := Decode(data)
		if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("decoding the same bytes twice disagreed: %v vs %v", err1, err2)
		}
		if d1 != d2 || !reflect.DeepEqual(img1, img2) {
			t.Fatalf("decoding the same bytes twice gave different images (digests %s, %s)", d1, d2)
		}
		if _, d, err := Decode(good); err != nil || d != goodDigest {
			t.Fatalf("good image after this input: digest %s err %v, want %s", d, err, goodDigest)
		}
	})
}
