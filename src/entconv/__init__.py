"""entconv: simulation and analysis of entanglement-preserving frequency conversion.

Models the polarization-coherent up-conversion of one photon of an entangled
pair, generates Poissonian coincidence data, and provides the full inference
stack used to certify the entanglement transfer: CHSH Bell analysis,
maximum-likelihood state and process tomography, and Monte-Carlo error bars.
"""

from .chsh import (ChshResult, ChshSettings, analyzer_observable, chsh_s,
                   correlation_from_state)
from .config import ExperimentConfig, default_config, load_config, save_config
from .conversion import (BudgetInputs, ConversionError, ConversionParams,
                         DetectionModel, EfficiencyParams, SourceModel, convert,
                         efficiency_budget, focusing_factor, p_max,
                         p_max_from_efficiency, sfg_efficiency, source_state)
from .counts import (CountDataError, CountRecord, expected_counts, poisson_resamples,
                     read_counts_csv, simulate_counts, simulate_process_counts,
                     write_counts_csv)
from .states import (MetricReport, PAULIS, bell_state, concurrence, fidelity, projector,
                     purity, tangle, trace_distance, werner_state)
from .tomography import (BatchFit, MonteCarloErrors, ReconstructionError,
                         TomographyOptions, TomographyResult, check_chi_matrix,
                         identity_chi, linear_inversion_state, mle_process, mle_state,
                         mle_tables, monte_carlo_errors, process_fidelity, process_purity,
                         subtract_accidentals, tomography_settings)

__version__ = "0.1.0"
