"""plcpkit: exact arithmetic for perfect linear complexity profiles.

One package, five views of the same phenomenon for binary sequences:
the linear complexity profile, the continued fraction of the associated
Laurent series, two feedback recurrences, Hankel determinant parities,
and 2-kernel/automaticity diagnostics — plus the generators that
produce the interesting examples, over any prime field where the notion
makes sense.
"""

__version__ = "0.1.0"


def backend_name():
    """The implementation `verify` reports and benchmark records name."""
    return "pure-python"


from plcpkit.field import (
    GF2,
    CoeffSeq,
    DensePoly,
    PrimeField,
    poly_divmod,
    poly_gcd,
    read_sequence,
    write_sequence,
)
from plcpkit.seqgen import (
    BitSource,
    UniformMorphism,
    morphism_fixed_point,
    named_sequence,
    phi1_jacobi,
    phi2_selector,
    phi3_generalized_rueppel,
    rueppel,
)
from plcpkit.lincomplex import (
    BerlekampMassey,
    LCProfile,
    expected_lc,
    first_imperfect_length,
    is_plcp,
    lcp_profile,
    recurrence_check,
)
from plcpkit.cfrac import (
    ContinuedFraction,
    convergents,
    has_flat_expansion,
    laurent_cf,
    max_pq_degree,
    orthogonal_multiplicity,
    profile_from_cf,
    rational_cf,
)
from plcpkit.hankel import (
    apww_check,
    first_even_hankel_order,
    hankel_integer_pm1,
    hankel_mod_p,
    is_apwenian_hankel,
)
from plcpkit.automata import (
    as_kernel_input,
    build_from_u,
    decimate,
    eventually_periodic,
    kernel_explore,
    klx_check,
    phi3_kernel_counts,
    phi3_kernel_size,
    uniform_morphism_scan,
    uv_decompose,
)
