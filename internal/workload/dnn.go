package workload

import (
	"fmt"

	"github.com/repro/aegis/internal/isa"
	"github.com/repro/aegis/internal/rng"
)

// LayerType is a DNN layer kind; the model extraction attack predicts the
// layer-type sequence of the victim model.
type LayerType int

// Layer kinds found in the model zoo.
const (
	LayerConv LayerType = iota + 1
	LayerBatchNorm
	LayerReLU
	LayerPool
	LayerFC
	LayerAdd // residual connection
	LayerSoftmax
)

var layerNames = map[LayerType]string{
	LayerConv:      "conv",
	LayerBatchNorm: "bn",
	LayerReLU:      "relu",
	LayerPool:      "pool",
	LayerFC:        "fc",
	LayerAdd:       "add",
	LayerSoftmax:   "softmax",
}

func (l LayerType) String() string {
	if s, ok := layerNames[l]; ok {
		return s
	}
	return fmt.Sprintf("layer(%d)", int(l))
}

// AllLayerTypes lists the layer alphabet for sequence models.
func AllLayerTypes() []LayerType {
	return []LayerType{LayerConv, LayerBatchNorm, LayerReLU, LayerPool,
		LayerFC, LayerAdd, LayerSoftmax}
}

// Layer is one layer instance with a size factor scaling its compute.
type Layer struct {
	Type LayerType
	// Size scales compute: channels×kernel for conv, units for fc.
	Size int
}

// ModelArch is one DNN architecture of the zoo.
type ModelArch struct {
	Name   string
	Layers []Layer
}

// LayerSequence returns the layer-type sequence (the MEA ground truth).
func (m ModelArch) LayerSequence() []LayerType {
	out := make([]LayerType, len(m.Layers))
	for i, l := range m.Layers {
		out[i] = l.Type
	}
	return out
}

// ModelZoo returns the 30 victim model architectures: VGG-style plain
// stacks, ResNet-style residual models and MobileNet-style thin models of
// varying depth, standing in for the 30 most-used torchvision models.
func ModelZoo() []ModelArch {
	var zoo []ModelArch

	// VGG-style: [conv-relu]xN + pool blocks, then FC head.
	for i, depth := range []int{2, 3, 4, 5, 6, 7, 8, 9, 11, 13} {
		m := ModelArch{Name: fmt.Sprintf("vggsim-%d", i)}
		size := 64
		for b := 0; b < depth; b++ {
			m.Layers = append(m.Layers,
				Layer{LayerConv, size},
				Layer{LayerReLU, size})
			if b%2 == 1 {
				m.Layers = append(m.Layers, Layer{LayerPool, size})
				if size < 512 {
					size *= 2
				}
			}
		}
		m.Layers = append(m.Layers,
			Layer{LayerFC, 4096}, Layer{LayerReLU, 4096},
			Layer{LayerFC, 1000}, Layer{LayerSoftmax, 1000})
		zoo = append(zoo, m)
	}

	// ResNet-style: conv-bn-relu stem, residual blocks with add.
	for i, blocks := range []int{2, 3, 4, 5, 6, 8, 10, 12, 14, 16} {
		m := ModelArch{Name: fmt.Sprintf("resnetsim-%d", i)}
		m.Layers = append(m.Layers,
			Layer{LayerConv, 64}, Layer{LayerBatchNorm, 64},
			Layer{LayerReLU, 64}, Layer{LayerPool, 64})
		size := 64
		for b := 0; b < blocks; b++ {
			m.Layers = append(m.Layers,
				Layer{LayerConv, size}, Layer{LayerBatchNorm, size},
				Layer{LayerReLU, size},
				Layer{LayerConv, size}, Layer{LayerBatchNorm, size},
				Layer{LayerAdd, size}, Layer{LayerReLU, size})
			if b%3 == 2 && size < 512 {
				size *= 2
			}
		}
		m.Layers = append(m.Layers,
			Layer{LayerPool, size}, Layer{LayerFC, 1000}, Layer{LayerSoftmax, 1000})
		zoo = append(zoo, m)
	}

	// MobileNet-style: thin conv-bn-relu triples, no pooling between.
	for i, depth := range []int{4, 6, 8, 10, 12, 14, 16, 18, 20, 22} {
		m := ModelArch{Name: fmt.Sprintf("mobilesim-%d", i)}
		m.Layers = append(m.Layers, Layer{LayerConv, 32}, Layer{LayerBatchNorm, 32}, Layer{LayerReLU, 32})
		size := 32
		for b := 0; b < depth; b++ {
			m.Layers = append(m.Layers,
				Layer{LayerConv, size}, Layer{LayerBatchNorm, size},
				Layer{LayerReLU, size})
			if b%4 == 3 && size < 256 {
				size *= 2
			}
		}
		m.Layers = append(m.Layers,
			Layer{LayerPool, size}, Layer{LayerFC, 1000}, Layer{LayerSoftmax, 1000})
		zoo = append(zoo, m)
	}

	return zoo
}

// layerPhase converts a layer to its execution phase. Different layer
// types have characteristic instruction mixes: convolutions are
// vector-multiply heavy with streaming working sets, FC layers are
// load/multiply bound, pooling is load/compare bound, batch norm is a thin
// vector pass, residual adds are short load/add/store bursts.
func layerPhase(l Layer, r *rng.Source) Phase {
	jitter := func(n int) int {
		v := int(float64(n) * (1 + r.Gaussian(0, 0.07)))
		if v < 50 {
			v = 50
		}
		return v
	}
	switch l.Type {
	case LayerConv:
		return Phase{
			Name: "conv",
			Mix: Mix{
				isa.ClassSSE:  4,
				isa.ClassAVX:  3,
				isa.ClassMul:  2,
				isa.ClassLoad: 3,
				isa.ClassALU:  1,
			},
			Instructions: jitter(l.Size * 40),
			Intensity:    1200,
			WorkingSet:   uint64(l.Size) << 11,
		}
	case LayerBatchNorm:
		return Phase{
			Name: "bn",
			Mix: Mix{
				isa.ClassSSE:  3,
				isa.ClassLoad: 2,
				isa.ClassMul:  1,
				isa.ClassDiv:  0.5,
			},
			Instructions: jitter(l.Size * 6),
			Intensity:    900,
			WorkingSet:   uint64(l.Size) << 9,
		}
	case LayerReLU:
		return Phase{
			Name: "relu",
			Mix: Mix{
				isa.ClassALU:    2,
				isa.ClassLoad:   2,
				isa.ClassStore:  2,
				isa.ClassBranch: 1,
			},
			Instructions: jitter(l.Size * 4),
			Intensity:    900,
			WorkingSet:   uint64(l.Size) << 9,
		}
	case LayerPool:
		return Phase{
			Name: "pool",
			Mix: Mix{
				isa.ClassLoad:   4,
				isa.ClassALU:    2,
				isa.ClassBranch: 1.5,
				isa.ClassStore:  1,
			},
			Instructions: jitter(l.Size * 8),
			Intensity:    800,
			WorkingSet:   uint64(l.Size) << 10,
		}
	case LayerFC:
		return Phase{
			Name: "fc",
			Mix: Mix{
				isa.ClassLoad: 4,
				isa.ClassMul:  3,
				isa.ClassSSE:  2,
				isa.ClassALU:  1,
			},
			Instructions: jitter(l.Size * 12),
			Intensity:    1100,
			WorkingSet:   uint64(l.Size) << 12,
		}
	case LayerAdd:
		return Phase{
			Name: "add",
			Mix: Mix{
				isa.ClassLoad:  3,
				isa.ClassALU:   2,
				isa.ClassStore: 2,
			},
			Instructions: jitter(l.Size * 3),
			Intensity:    900,
			WorkingSet:   uint64(l.Size) << 9,
		}
	default: // LayerSoftmax
		return Phase{
			Name: "softmax",
			Mix: Mix{
				isa.ClassX87:  2, // exp/log scalar math
				isa.ClassDiv:  1.5,
				isa.ClassALU:  1,
				isa.ClassLoad: 1,
			},
			Instructions: jitter(l.Size * 2),
			Intensity:    600,
			WorkingSet:   uint64(l.Size) << 6,
		}
	}
}

// InferenceJob builds one inference execution of the model; r supplies the
// run-to-run variation between repeated inferences.
func InferenceJob(m ModelArch, r *rng.Source) Job {
	job := Job{Label: m.Name}
	for _, l := range m.Layers {
		job.Phases = append(job.Phases, layerPhase(l, r))
	}
	return job
}
