"""Lattice simulator for continuously monitored quantum matter whose
measurement signal sources a classical Newton field."""

from .lattice import DiagonalField, GuardError, LatticeGrid, ParticleSet, kinetic_hamiltonian
from .kernels import CorrelationKernel, MatrixKernel, coulomb_potential, smear
from .engine import (FeedbackSpec, MonitoringSpec, TrajectoryRecord,
                     combined_step, ensemble_mean, feedback_step,
                     hamiltonian_step, hfb_family_identity_check, hfb_identity_check, me_step,
                     run_ensemble, run_trajectory, sme_step, sse_step)
from .models import (Model, ModelSpec, build_backaction_hamiltonian, build_model,
                     kappa_decoherence_coefficient, sn_step)
from .analysis import (DecoherenceProfile, LinearityReport, closed_form_rate,
                       decoherence_profile, fit_offdiagonal_decay, kappa_scan,
                       linearity_witness, pair_potential_curve, trace_distance)

__version__ = "0.1.0"
