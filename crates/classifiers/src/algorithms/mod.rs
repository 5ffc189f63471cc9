//! The 15 classifier implementations of paper Table 3.

mod deepboost;
mod discriminant;
pub(crate) mod encode;
mod ensemble;
mod knn;
mod lmt;
mod naive_bayes;
mod neuralnet;
mod plsda;
mod rules;
mod svm;
#[cfg(test)]
pub(crate) mod testdata;
mod trees;

pub use deepboost::DeepBoost;
pub use discriminant::{Lda, Rda};
pub use ensemble::{BaggingClassifier, RandomForest};
pub use knn::Knn;
pub use lmt::LmtClassifier;
pub use naive_bayes::NaiveBayes;
pub use neuralnet::NeuralNet;
pub use plsda::Plsda;
pub use rules::PartClassifier;
pub use svm::{Kernel, Svm};
pub use trees::{C50Classifier, J48Classifier, RpartClassifier};

#[cfg(test)]
mod tests {
    use crate::algorithms::testdata::{bits, mixed, Shape};
    use crate::{Algorithm, ParamConfig};
    use smartml_linalg::vecops;

    /// Held-out rows with missing cells, numeric and categorical.
    fn data() -> (smartml_data::Dataset, Vec<usize>, Vec<usize>) {
        mixed(Shape {
            seed: 3,
            rows: 90,
            numeric: 5,
            categorical: true,
            classes: 3,
            empty_class: false,
        })
    }

    #[test]
    fn a_rows_prediction_does_not_depend_on_its_batch() {
        let (data, train, test) = data();
        assert!(test.iter().any(|&r| data.features().iter().any(|f| match f {
            smartml_data::Feature::Numeric { values, .. } => values[r].is_nan(),
            smartml_data::Feature::Categorical { .. } => false,
        })));
        let batch_dependent: Vec<Algorithm> = Algorithm::ALL
            .into_iter()
            .filter(|alg| {
                let model = alg.build(&ParamConfig::default()).fit(&data, &train).unwrap();
                let one_by_one: Vec<Vec<f64>> =
                    test.iter().map(|&r| model.predict_proba(&data, &[r]).remove(0)).collect();
                bits(&model.predict_proba(&data, &test)) != bits(&one_by_one)
            })
            .collect();
        assert!(batch_dependent.is_empty(), "batch-dependent predictions: {batch_dependent:?}");
    }

    #[test]
    fn predict_is_the_argmax_of_predict_proba() {
        let (data, train, test) = data();
        for alg in Algorithm::ALL {
            let model = alg.build(&ParamConfig::default()).fit(&data, &train).unwrap();
            let argmax: Vec<u32> = model
                .predict_proba(&data, &test)
                .iter()
                .map(|p| vecops::argmax(p).unwrap_or(0) as u32)
                .collect();
            assert_eq!(model.predict(&data, &test), argmax, "{alg}");
        }
    }
}
