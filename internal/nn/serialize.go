package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// Gob encodes the concrete layer types carried inside the Layer
// interface; they must be registered before encoding or decoding.
func init() {
	gob.Register(&Sequential{})
	gob.Register(&Linear{})
	gob.Register(&Conv2D{})
	gob.Register(&ReLU{})
	gob.Register(&Flatten{})
	gob.Register(&MaxPool2D{})
	gob.Register(&GlobalAvgPool2D{})
	gob.Register(&BatchNorm{})
	gob.Register(&Residual{})
}

// Save serializes a network to w. Only exported configuration and
// weights are stored; forward caches are rebuilt on first use.
func Save(w io.Writer, net *Sequential) error {
	if err := gob.NewEncoder(w).Encode(net); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// Load deserializes a network from r.
func Load(r io.Reader) (*Sequential, error) {
	var net *Sequential
	if err := gob.NewDecoder(r).Decode(&net); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	return net, nil
}

// SaveFile serializes a network to the named file.
func SaveFile(path string, net *Sequential) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nn: save %s: %w", path, err)
	}
	defer f.Close()
	if err := Save(f, net); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile deserializes a network from the named file.
func LoadFile(path string) (*Sequential, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nn: load %s: %w", path, err)
	}
	defer f.Close()
	return Load(f)
}
