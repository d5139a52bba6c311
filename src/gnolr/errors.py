"""Exception hierarchy shared across the package."""


class GnolrError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(GnolrError):
    """Feedback schema is malformed (empty, negative counts, bad permutation)."""


class ArgumentError(GnolrError):
    """An argument is outside its documented range."""


class ThresholdEstimationError(GnolrError):
    """A category boundary has an empty side, so its log-odds is undefined."""


class DimensionError(GnolrError):
    """Matrix or vector shapes do not line up."""


class OptimizerError(GnolrError):
    """Optimizer update cannot proceed (e.g. non-finite gradient)."""


class IngestionError(GnolrError):
    """Raw interaction data is malformed or incomplete."""


class UndefinedMetricError(GnolrError):
    """Metric is undefined for the given inputs (e.g. single-class AUC)."""


class ConfigError(GnolrError):
    """Run configuration is invalid (unknown key, missing path, bad value)."""
