"""Exact-arithmetic toolkit for Cantor series digit systems.

Construction and analysis of mixed-radix digit expansions: sequence
rules and contraction chains, digit streams and transcoding, exact
star discrepancy with progression certificates, scheduled digit
generation whose streams equidistribute at every chain level without
ever using the zero digit, and nested-interval dimension bounds.
"""

from .sequences import (
    BasicSequenceRule,
    BlockRepetitionRule,
    ChainSpec,
    ConstantRule,
    ContractionRule,
    ExplicitListRule,
    GeometricRule,
    growth_condition_trace,
    partial_sum_qnk,
    rule_from_json,
    rule_to_json,
)
from .expansion import (
    DigitStream,
    count_block,
    digit_census,
    evaluate,
    expand,
    level_points,
    load_jsonl,
    save_jsonl,
    t_enclosure,
    transcode,
    transcode_inverse,
)
from .equidist import (
    AAPCertificate,
    aap_bound,
    concat_bound,
    dn_diagnostic,
    normality_report,
    star_discrepancy,
    verify_aap,
)
from .theta import (
    SelectionPolicy,
    ThetaSchedule,
    build_schedule,
    compute_nu,
    digit_candidates,
    envelope,
    envelope_sup,
    extract_y,
    extract_y_prefix,
    generate_digits,
    position_decomposition,
    prefix_bound_check,
)
from .dimension import (
    LevelGeometry,
    basic_intervals,
    falconer_lower_bound,
    theta_dimension_trace,
    theta_geometry,
)

__version__ = "0.1.0"
