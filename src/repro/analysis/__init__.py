"""Analysis: campaign statistics, policy replay, TCP impact, reports."""

from .figures import (
    export_all,
    export_fig4_left,
    export_fig4_middle,
    export_fig4_right,
)
from .replay import PolicyReplay, ReplayResult
from .report import format_kv, format_table, series_sparkline
from .stats import (
    DefaultVsBest,
    Excursion,
    PathStats,
    campaign_table,
    default_vs_best,
    detect_excursions,
)
from .tcp_model import (
    DeliveryStats,
    InOrderDeliveryModel,
    mathis_throughput,
    stream_goodput,
)

__all__ = [
    "DefaultVsBest",
    "DeliveryStats",
    "Excursion",
    "InOrderDeliveryModel",
    "PathStats",
    "PolicyReplay",
    "ReplayResult",
    "campaign_table",
    "default_vs_best",
    "detect_excursions",
    "export_all",
    "export_fig4_left",
    "export_fig4_middle",
    "export_fig4_right",
    "format_kv",
    "format_table",
    "mathis_throughput",
    "series_sparkline",
    "stream_goodput",
]
