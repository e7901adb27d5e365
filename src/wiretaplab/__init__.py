"""Physical-layer-security lab: split-BSC wiretap channels, coset codes,
equivocation measurement, quantization-loss analysis, and an LPN-based
shared-key cryptosystem built on the same stochastic encoder."""

from .channels import (
    AwgnSplitChannel,
    Bsc,
    Quantizer,
    bsc_concatenate,
    bsc_transmit,
    crossover_probabilities,
    default_half_range,
    degrading_channel,
    normal_cdf,
    quantize,
    transmit,
    uniform_quantizer,
)
from .coset import (
    BlockErrorEstimate,
    CosetCode,
    EnumerationBudgetError,
    EquivocationReport,
    WiretapCodeParams,
    block_error_rate,
    code_from_text,
    code_to_text,
    decode_ml,
    encode,
    exact_equivocation,
    example1_code,
    monte_carlo_equivocation,
    params_from_channel,
    random_coset_code,
    uncoded_code,
)
from .gf2 import (
    BitMatrix,
    BitVector,
    Elimination,
    InconsistentSystemError,
    SingularMatrixError,
    invert,
    mat_mul,
    mat_vec_mul,
    random_full_rank,
    row_parities,
    xor_rows,
)
from .infometrics import (
    DiscreteChannelSpec,
    LossCurvePoint,
    awgn_mutual_information,
    binary_entropy,
    equivocation_loss,
    loss_curve,
    max_equivocation_loss,
    mutual_information_discrete,
    quantized_mutual_information,
    quantizer_sweep,
    secrecy_capacity_bsc,
    secrecy_capacity_search,
)
from .lpn import (
    LpnCiphertext,
    LpnKey,
    LpnParams,
    ciphertext_from_text,
    ciphertext_to_text,
    correction_radius,
    decrypt,
    encrypt,
    key_from_text,
    key_to_text,
    keygen,
    registered_code,
    toy_params,
)
from .prng import PrngStream, prng_stream

__version__ = "0.1.0"
