package cluster

import "seedblast/internal/service"

// ServerConfig, NewServer and NewHandler stand up a coordinating
// service for the benchmark harness and are kept until it next
// changes; new code builds the service directly, as cmd/seedservd does.
type ServerConfig = service.Config

// NewServer returns a service that runs its jobs on coord and serves
// coord's metrics with its own.
func NewServer(coord *Coordinator, cfg ServerConfig) *service.Service {
	cfg.Run = coord.Run
	svc := service.New(cfg)
	svc.Registry().Include(coord.Registry())
	return svc
}

// NewHandler is service.NewHandler.
var NewHandler = service.NewHandler
