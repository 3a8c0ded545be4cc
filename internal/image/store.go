package image

import (
	"fmt"
	"sync"
)

// Store is an in-memory content-addressed image store: serialized
// images keyed by their SHA-256 content digest. The distributed
// campaign coordinator holds one — a worker parking a subtree uploads
// its branch-point image once, every worker resuming a shard of that
// subtree downloads it by digest, and identical world states (the
// common case when many branch points share a prefix) deduplicate to a
// single entry. Store is safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	data map[string][]byte
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{data: make(map[string][]byte)}
}

// Add serializes the image into the store and returns its digest.
func (s *Store) Add(img *Image) (string, error) {
	data, digest, err := Encode(img)
	if err != nil {
		return "", err
	}
	s.put(digest, data)
	return digest, nil
}

// AddBytes validates an already-serialized image and stores it under
// its verified digest. The bytes are parsed in full — a corrupt or
// truncated image is rejected here, not when a worker later loads it.
func (s *Store) AddBytes(data []byte) (string, error) {
	_, digest, err := Decode(data)
	if err != nil {
		return "", err
	}
	s.put(digest, data)
	return digest, nil
}

func (s *Store) put(digest string, data []byte) {
	s.mu.Lock()
	if _, ok := s.data[digest]; !ok {
		s.data[digest] = data
	}
	s.mu.Unlock()
}

// Remove drops the images stored under the given digests; unknown
// digests are ignored.
func (s *Store) Remove(digests ...string) {
	s.mu.Lock()
	for _, d := range digests {
		delete(s.data, d)
	}
	s.mu.Unlock()
}

// Bytes returns the serialized image stored under digest.
func (s *Store) Bytes(digest string) ([]byte, bool) {
	s.mu.Lock()
	data, ok := s.data[digest]
	s.mu.Unlock()
	return data, ok
}

// Get parses the image stored under digest.
func (s *Store) Get(digest string) (*Image, error) {
	data, ok := s.Bytes(digest)
	if !ok {
		return nil, fmt.Errorf("image: store has no image %s", digest)
	}
	img, _, err := Decode(data)
	return img, err
}

// Len returns the number of distinct images stored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Digests returns the stored digests, in no particular order.
func (s *Store) Digests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.data))
	for d := range s.data {
		out = append(out, d)
	}
	return out
}
