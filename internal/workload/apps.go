package workload

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"github.com/repro/aegis/internal/rng"
)

// App is a protected application with a finite set of customer-specified
// secrets. The Application Profiler runs the app once per secret to
// profile HPC leakage (paper §V); the attacks build labelled datasets from
// the same interface.
type App interface {
	// Name identifies the application.
	Name() string
	// Secrets lists the secret values the application may execute.
	Secrets() []string
	// Job builds one execution of the application under the given secret;
	// r supplies the run-to-run variation.
	Job(secret string, r *rng.Source) (Job, error)
}

// WebsiteApp is the browser workload of the website fingerprinting attack:
// secrets are the 45 target sites.
type WebsiteApp struct {
	// Sites overrides the secret set; nil uses the full 45-site list.
	Sites []string
}

var _ App = (*WebsiteApp)(nil)

// Name implements App.
func (a *WebsiteApp) Name() string { return "website" }

// Secrets implements App.
func (a *WebsiteApp) Secrets() []string {
	if a.Sites != nil {
		return append([]string(nil), a.Sites...)
	}
	return Websites()
}

// Job implements App.
func (a *WebsiteApp) Job(secret string, r *rng.Source) (Job, error) {
	sites := a.Sites
	if sites == nil {
		sites = websites[:]
	}
	if !slices.Contains(sites, secret) {
		return Job{}, fmt.Errorf("workload: unknown website %q", secret)
	}
	return WebsiteJob(secret, r), nil
}

// KeystrokeApp is the terminal workload of the keystroke sniffing attack:
// secrets are the keystroke counts 0..9 in the observation window.
type KeystrokeApp struct {
	// WindowTicks is the observation window; 0 uses the default.
	WindowTicks int
	// MaxKeys bounds the key-count alphabet (exclusive); 0 means 10.
	MaxKeys int
}

var _ App = (*KeystrokeApp)(nil)

// Name implements App.
func (a *KeystrokeApp) Name() string { return "keystroke" }

func (a *KeystrokeApp) maxKeys() int {
	if a.MaxKeys <= 0 || a.MaxKeys > 10 {
		return 10
	}
	return a.MaxKeys
}

// Secrets implements App.
func (a *KeystrokeApp) Secrets() []string {
	out := make([]string, a.maxKeys())
	for k := range out {
		out[k] = KeystrokeLabel(k)
	}
	return out
}

// Job implements App.
func (a *KeystrokeApp) Job(secret string, r *rng.Source) (Job, error) {
	if len(secret) != 6 || secret[:5] != "keys-" {
		return Job{}, fmt.Errorf("workload: unknown keystroke secret %q", secret)
	}
	k, err := strconv.Atoi(secret[5:])
	if err != nil || k < 0 || k >= a.maxKeys() {
		return Job{}, fmt.Errorf("workload: unknown keystroke secret %q", secret)
	}
	return KeystrokeJob(k, a.WindowTicks, r), nil
}

// DNNApp is the inference workload of the model extraction attack: secrets
// are the 30 zoo model names.
type DNNApp struct {
	// Models overrides the zoo; nil uses the full 30-model zoo.
	Models []ModelArch
}

var _ App = (*DNNApp)(nil)

// sharedZoo is the full model zoo, built once and never written: every
// DNNApp without its own Models reads the same copy.
var sharedZoo = sync.OnceValue(ModelZoo)

// Name implements App.
func (a *DNNApp) Name() string { return "dnn" }

func (a *DNNApp) models() []ModelArch {
	if a.Models != nil {
		return a.Models
	}
	return sharedZoo()
}

// Secrets implements App.
func (a *DNNApp) Secrets() []string {
	ms := a.models()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// Arch resolves a model by secret name. It scans the models: there are at
// most 30, and a scan allocates nothing.
func (a *DNNApp) Arch(secret string) (ModelArch, error) {
	for _, m := range a.models() {
		if m.Name == secret {
			return m, nil
		}
	}
	return ModelArch{}, fmt.Errorf("workload: unknown model %q", secret)
}

// Job implements App.
func (a *DNNApp) Job(secret string, r *rng.Source) (Job, error) {
	m, err := a.Arch(secret)
	if err != nil {
		return Job{}, err
	}
	return InferenceJob(m, r), nil
}
