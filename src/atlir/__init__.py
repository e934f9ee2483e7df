"""Bounded ATL model checking under imperfect information and perfect recall.

The package has four layers: game structures and formulas (``cgs``,
``formulas``), strategies and computation trees (``strategies``,
``comptree``), the bounded checker (``mc``), and a compiler from
deterministic Turing machines into three-agent safety games whose
computation trees simulate the machine tape (``turing``, ``reduction``).
"""

from .cgs import (
    Cgs,
    CgsError,
    History,
    InvalidCgs,
    JointAction,
    UnknownAction,
    UnknownAgent,
    UnknownState,
    Violation,
    cgs_from_json,
    cgs_to_json,
    load_cgs,
    obs_equiv_histories,
    obs_equiv_states,
    save_cgs,
    successor,
    validate_cgs,
)
from .comptree import (
    ComputationTree,
    DuplicateAction,
    IncompatibleAction,
    OrderingNotTotal,
    TreeError,
    UndefinedSuccessor,
    extend,
    is_complete_level,
    level,
    levels_to_json,
    outcomes,
    saturate,
    single_node,
    to_dot,
)
from .formulas import (
    And,
    Atom,
    EmptyCoalition,
    Formula,
    FormulaSyntaxError,
    Globally,
    Next,
    Not,
    Until,
    parse_formula,
    render_formula,
)
from .mc import (
    BoundTooSmall,
    Truth,
    UnknownProposition,
    Verdict,
    check,
)
from .reduction import (
    ClaimEntry,
    ClaimReport,
    HistoryType,
    IncompleteLevel,
    ReductionCgs,
    build_cgs,
    classify_history,
    decode_level,
    horizon,
    simulating_strategy,
    simulation_tree,
    verify_construction,
)
from .strategies import (
    AgentStrategy,
    StrategyError,
    StrategyUndefined,
    TeamStrategy,
    compatible_in_order,
    is_uniform,
    table_dump,
    table_rows,
)
from .turing import (
    Configuration,
    Halted,
    HaltedAt,
    MalformedConfiguration,
    MalformedMachine,
    TuringMachine,
    halts_within,
    initial_configuration,
    load_tm,
    run,
    save_tm,
    step,
)

__version__ = "0.1.0"
