"""C1G2 RFID protocol substrate: EPCs, tags, inventory protocols, reader.

This subpackage simulates the parts of the EPC Class-1 Generation-2 air
interface that determine *when* each tag is read during a sweep: frame-slotted
ALOHA (with the adaptive Q algorithm) and a reader that glues
the protocol to the RF channel and produces the (timestamp, phase, RSSI)
read records the paper's algorithms consume.
"""

from .aloha import (
    AlohaTimings,
    FrameSlottedAloha,
    QAlgorithm,
)
from .coupling import NeighborGrid
from .epc import EPC, EPC_BITS, generate_epcs
from .reader import ReaderConfig, RFIDReader
from .reading import ReadBatch, ReadLog, TagRead
from .tag import (
    ALIEN_ALN_9634,
    ALIEN_ALN_9662,
    ALIEN_ALN_9720,
    ALIEN_ALR_9610,
    PAPER_TAG_MODELS,
    Tag,
    TagCollection,
    TagModel,
    make_tags,
)

__all__ = [
    "ALIEN_ALN_9634",
    "ALIEN_ALN_9662",
    "ALIEN_ALN_9720",
    "ALIEN_ALR_9610",
    "AlohaTimings",
    "EPC",
    "EPC_BITS",
    "FrameSlottedAloha",
    "NeighborGrid",
    "PAPER_TAG_MODELS",
    "QAlgorithm",
    "RFIDReader",
    "ReadBatch",
    "ReadLog",
    "ReaderConfig",
    "Tag",
    "TagCollection",
    "TagModel",
    "TagRead",
    "generate_epcs",
    "make_tags",
]
