"""Workload generators: tag layouts, library shelf, airport + warehouse conveyors."""

from .warehouse import (
    ConveyorBatch,
    ConveyorConfig,
    ConveyorPortal,
    conveyor_batch,
    conveyor_experiment,
    conveyor_portal,
    conveyor_scene,
)
from .airport import (
    BaggageBatch,
    EVENING_PEAK,
    MIDDAY_OFF_PEAK,
    MORNING_PEAK,
    PAPER_PERIODS,
    TrafficPeriod,
    baggage_batch,
)
from .layouts import (
    grid_layout,
    paper_test_cases,
    random_spacing_row,
    reference_tag_grid,
    row_layout,
    staircase_layout,
)
from .library import (
    Book,
    Bookshelf,
    detect_misplaced_books,
    generate_bookshelf,
    misplace_books,
)


__all__ = [
    "BaggageBatch",
    "Book",
    "Bookshelf",
    "ConveyorBatch",
    "ConveyorConfig",
    "EVENING_PEAK",
    "MIDDAY_OFF_PEAK",
    "MORNING_PEAK",
    "PAPER_PERIODS",
    "TrafficPeriod",
    "baggage_batch",
    "conveyor_batch",
    "conveyor_experiment",
    "conveyor_scene",
    "detect_misplaced_books",
    "generate_bookshelf",
    "grid_layout",
    "misplace_books",
    "paper_test_cases",
    "random_spacing_row",
    "reference_tag_grid",
    "row_layout",
    "staircase_layout",
]
